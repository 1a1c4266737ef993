// Fixture for the kernelalias analyzer. The kernel type mirrors the
// engine's exprDAG.eval: its result is a set of registers the next call
// overwrites. The iter type mirrors a streaming operator: its batch is
// recycled by the next NextBatch.
package kernelalias

import (
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

type kernel = func(*vector.Batch) ([][]variant.Value, error)

type iter interface {
	NextBatch() (*vector.Batch, error)
	Close()
}

type op struct {
	in   iter
	eval kernel
	cur  *vector.Batch
	arrs []variant.Value
	hdr  [][]variant.Value
	kept []*vector.Batch
	keys [][]variant.Value
}

// True positive: the sort's drain before the contract — every streamed
// batch appended to a list that outlives the loop that pulled it.
func (o *op) drainKeeping() ([]*vector.Batch, error) {
	var batches []*vector.Batch
	for {
		b, err := o.in.NextBatch()
		if err != nil || b == nil {
			return batches, err
		}
		batches = append(batches, b) // want `borrowed register or batch appended to batches`
	}
}

// True positive: one batch per call, but the field accumulates them across
// calls.
func (o *op) keepInField() error {
	b, err := o.in.NextBatch()
	if err != nil {
		return err
	}
	o.kept = append(o.kept, b) // want `borrowed register or batch appended to o\.kept`
	return nil
}

// True positive: a register stored, per batch, into a container that
// outlives the loop — the second eval overwrites what the first slot holds.
func (o *op) keysPerBatch(batches []*vector.Batch) error {
	keys := make([][]variant.Value, len(batches))
	for i, b := range batches {
		outs, err := o.eval(b)
		if err != nil {
			return err
		}
		keys[i] = outs[0] // want `borrowed register or batch stored into keys`
	}
	o.keys = keys
	return nil
}

// True positive: the borrow flows through a loop-local container into the
// list that outlives the loop.
func (o *op) keysViaLocal(batches []*vector.Batch) ([][][]variant.Value, error) {
	var all [][][]variant.Value
	for _, b := range batches {
		outs, err := o.eval(b)
		if err != nil {
			return nil, err
		}
		kc := make([][]variant.Value, 1)
		kc[0] = outs[0]
		all = append(all, kc) // want `borrowed register or batch appended to all`
	}
	return all, nil
}

// True positive: a closure accumulating into a variable it captures.
func capture(fn kernel) func(*vector.Batch) error {
	var seen [][]variant.Value
	return func(b *vector.Batch) error {
		outs, err := fn(b)
		if err != nil {
			return err
		}
		seen = append(seen, outs[0]) // want `borrowed register or batch appended to seen`
		return nil
	}
}

// Guarded false positive: Detach on arrival is the contract's way to keep a
// batch, and the ellipsis append copies a register's elements out.
func (o *op) drainDetached() ([]*vector.Batch, [][]variant.Value, error) {
	var batches []*vector.Batch
	var keys [][]variant.Value
	for {
		b, err := o.in.NextBatch()
		if err != nil || b == nil {
			return batches, keys, err
		}
		outs, err := o.eval(b)
		if err != nil {
			return nil, nil, err
		}
		keys = append(keys, append([]variant.Value(nil), outs[0]...))
		b = b.Detach()
		batches = append(batches, b)
	}
}

// Guarded false positive: a single slot is the operator's cursor on its
// current input — FLATTEN holds the batch and its array register while it
// emits the expansion, and pulls the next batch only when done with both.
func (o *op) advance() error {
	b, err := o.in.NextBatch()
	if err != nil || b == nil {
		return err
	}
	outs, err := o.eval(b)
	if err != nil {
		return err
	}
	o.cur, o.arrs = b, outs[0]
	return nil
}

// Guarded false positive: refilling a recycled header every batch is
// bounded — each slot is overwritten by the next call — and handing the
// registers onward inside a batch is how project streams.
func (o *op) project(b *vector.Batch) (*vector.Batch, error) {
	outs, err := o.eval(b)
	if err != nil {
		return nil, err
	}
	o.hdr[0] = outs[0]
	return &vector.Batch{Cols: outs, Sel: b.Sel}, nil
}

// Guarded false positive: element reads of a vector produce values, not the
// borrowed storage, so a list of them is the caller's own.
func (o *op) firstValues(batches []*vector.Batch) ([]variant.Value, error) {
	var firsts []variant.Value
	for _, b := range batches {
		outs, err := o.eval(b)
		if err != nil {
			return nil, err
		}
		firsts = append(firsts, outs[0][0])
	}
	return firsts, nil
}

// Guarded false positive: documented intentional retention is suppressed by
// the directive; linttest fails on any diagnostic without a want, so this
// line doubles as the suppression test.
func (o *op) suppressed() error {
	b, err := o.in.NextBatch()
	if err != nil {
		return err
	}
	o.kept = append(o.kept, b) //jsqlint:ignore kernelalias fixture-documented retention
	return nil
}

// typedKernel mirrors the typed-kernel helpers of the engine's exprt.go:
// extra parameters after the leading batch, same borrowed slice result.
type typedKernel = func(b *vector.Batch, scratch []variant.Value) ([]variant.Value, error)

// True positive: a batch-leading kernel with extra parameters lends its
// result out exactly like a plain one.
func accumulateTyped(fn typedKernel, batches []*vector.Batch) ([][]variant.Value, error) {
	var all [][]variant.Value
	for _, b := range batches {
		vals, err := fn(b, nil)
		if err != nil {
			return nil, err
		}
		all = append(all, vals) // want `borrowed register or batch appended to all`
	}
	return all, nil
}

// Guarded false positive: a batch-leading helper whose first result is not
// a slice (count, error) is not a kernel; keeping its results is fine.
func countRows(b *vector.Batch, limit int) (int, error) {
	return b.NumRows(), nil
}

func useCounts(batches []*vector.Batch) ([]int, error) {
	var counts []int
	for _, b := range batches {
		n, err := countRows(b, 10)
		if err != nil {
			return nil, err
		}
		counts = append(counts, n)
	}
	return counts, nil
}
