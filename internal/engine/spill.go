package engine

import (
	"encoding/binary"
	"fmt"

	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// Spill-to-disk for the three pipeline breakers. Every format here round-
// trips through the exact binary variant codec (variant/serial.go), so a
// value read back from disk is bit-identical to the value that was written —
// the foundation of the byte-identical-output guarantee at any memory limit.
//
// The spill strategies, by breaker:
//
//   - Hash aggregation, mergeable aggregates: a span's whole table spills as
//     one run of exact partial states (group key, key values, accumulator
//     states). The ordered merge (aggMerger) folds the runs and the final
//     live table back in spill order, which is input order, so
//     mergeAccumulators reproduces the sequential fold exactly (the
//     aggsMergeWhy proof).
//   - Hash aggregation, order-exact aggregates (float SUM/AVG, unknown
//     names): partial states do not merge exactly, so after overflow the
//     remaining input tuples are deferred to disk — already evaluated, in
//     input order — and replayed through the very same foldRow at the end.
//     The pre-overflow table stays in memory (a documented floor on the
//     effective limit); the fold sequence is identical, hence so is every
//     accumulator bit.
//   - Sort: the buffered chunk is stably sorted and written (each row's
//     evaluated keys, then the row) as one run; consecutive runs are
//     consecutive input chunks, so the earliest-run-tiebreak k-way merge
//     equals the global stable sort. The merge decodes only the runs' head
//     keys, and each chosen row straight into its output batch's columns.
//   - Join build: the retained build rows, then every later one, go to an
//     offset-indexed run in drain order, and the hash table maps key bytes to
//     offsets instead of retained rows. A probe decodes a candidate list into
//     a scratch batch and pairs with it as with retained rows — same
//     candidates, same order, as the in-memory build.

// activeRowsBytes is the conservative retained-bytes charge for one batch:
// the deep size of every active row. Operators charge it per absorbed batch;
// it is an upper bound on what the structures built from those rows retain,
// so overcharging can only spill earlier, never change output.
func activeRowsBytes(b *vector.Batch) int64 {
	var n int64
	b.ForEach(func(i int) {
		for c := range b.Cols {
			n += b.Value(c, i).DeepSizeBytes()
		}
	})
	return n
}

// --- generic row codec --------------------------------------------------------

// appendRowBinary appends every column value of b's physical row i with the
// exact codec.
func appendRowBinary(dst []byte, b *vector.Batch, i int) []byte {
	for c := range b.Cols {
		dst = b.Value(c, i).AppendBinary(dst)
	}
	return dst
}

// decodeRowInto decodes a row written by appendRowBinary, appending each of
// its values to its column of cols.
func decodeRowInto(cols [][]variant.Value, rec []byte) error {
	for c := range cols {
		v, rest, err := variant.DecodeBinary(rec)
		if err != nil {
			return err
		}
		cols[c], rec = append(cols[c], v), rest
	}
	if len(rec) != 0 {
		return fmt.Errorf("engine: spilled row has %d trailing bytes", len(rec))
	}
	return nil
}

// --- accumulator partial-state codec ------------------------------------------

// Tags keep decode strict: a state decoded under the wrong spec fails fast
// instead of silently mis-folding.
const (
	accStateCount         = 'c'
	accStateCountIf       = 'i'
	accStateCountDistinct = 'd'
	accStateMinMax        = 'm'
	accStateAnyValue      = 'v'
	accStateBool          = 'b'
	accStateArrayAgg      = 'a'
	accStateTop1          = 't'
)

// encodeAccState appends acc's exact partial state. Only the aggregates
// admitted by aggsMergeWhy are encodable — the aggregation spill path picks
// the tuple-replay strategy for everything else before ever getting here.
func encodeAccState(dst []byte, acc accumulator) ([]byte, error) {
	switch a := acc.(type) {
	case *countAcc:
		dst = append(dst, accStateCount)
		dst = binary.AppendVarint(dst, a.n)
	case *countIfAcc:
		dst = append(dst, accStateCountIf)
		dst = binary.AppendVarint(dst, a.n)
	case *countDistinctAcc:
		// Map iteration order is nondeterministic, which only affects file
		// bytes: the restored set is equal, and COUNT(DISTINCT) reads its size.
		dst = append(dst, accStateCountDistinct)
		dst = binary.AppendUvarint(dst, uint64(len(a.seen)))
		for k := range a.seen {
			dst = binary.AppendUvarint(dst, uint64(len(k)))
			dst = append(dst, k...)
		}
	case *minMaxAcc:
		dst = append(dst, accStateMinMax)
		dst = appendSpillBool(dst, a.any)
		if a.any {
			dst = a.best.AppendBinary(dst)
		}
	case *anyValueAcc:
		dst = append(dst, accStateAnyValue)
		dst = appendSpillBool(dst, a.any)
		if a.any {
			dst = a.v.AppendBinary(dst)
		}
	case *boolAgg:
		dst = append(dst, accStateBool)
		dst = appendSpillBool(dst, a.any)
		dst = appendSpillBool(dst, a.acc)
	case *top1Acc:
		dst = append(dst, accStateTop1)
		dst = appendSpillBool(dst, a.any)
		if a.any {
			dst = a.best.AppendBinary(dst)
			for _, k := range a.keys {
				dst = k.AppendBinary(dst)
			}
		}
	case *arrayAggAcc:
		dst = append(dst, accStateArrayAgg)
		dst = binary.AppendUvarint(dst, uint64(len(a.vals)))
		for _, v := range a.vals {
			dst = v.AppendBinary(dst)
		}
		// The order keys follow flat, nord (known from the spec) per value.
		for _, k := range a.orders {
			dst = k.AppendBinary(dst)
		}
	default:
		return nil, fmt.Errorf("engine: aggregate %T has no spillable partial state", acc)
	}
	return dst, nil
}

// decodeAccState restores one partial state into a fresh accumulator built
// from spec (which re-supplies the static config: star, dir, isAnd,
// distinct). Returns the accumulator and the remaining bytes.
func decodeAccState(spec AggSpec, src []byte) (accumulator, []byte, error) {
	if len(src) == 0 {
		return nil, nil, fmt.Errorf("engine: truncated accumulator state")
	}
	tag := src[0]
	src = src[1:]
	acc := newAccumulator(spec)
	var err error
	switch a := acc.(type) {
	case *countAcc:
		if tag != accStateCount {
			return nil, nil, fmt.Errorf("engine: accumulator state tag %q for COUNT", tag)
		}
		a.n, src, err = readSpillVarint(src)
	case *countIfAcc:
		if tag != accStateCountIf {
			return nil, nil, fmt.Errorf("engine: accumulator state tag %q for COUNT_IF", tag)
		}
		a.n, src, err = readSpillVarint(src)
	case *countDistinctAcc:
		if tag != accStateCountDistinct {
			return nil, nil, fmt.Errorf("engine: accumulator state tag %q for COUNT DISTINCT", tag)
		}
		var n uint64
		n, src, err = readSpillUvarint(src)
		for i := uint64(0); err == nil && i < n; i++ {
			var kl uint64
			kl, src, err = readSpillUvarint(src)
			if err != nil {
				break
			}
			if uint64(len(src)) < kl {
				err = fmt.Errorf("engine: truncated distinct key")
				break
			}
			a.seen[string(src[:kl])] = true
			src = src[kl:]
		}
	case *minMaxAcc:
		if tag != accStateMinMax {
			return nil, nil, fmt.Errorf("engine: accumulator state tag %q for MIN/MAX", tag)
		}
		a.any, src, err = readSpillBool(src)
		if err == nil && a.any {
			a.best, src, err = variant.DecodeBinary(src)
		}
	case *anyValueAcc:
		if tag != accStateAnyValue {
			return nil, nil, fmt.Errorf("engine: accumulator state tag %q for ANY_VALUE", tag)
		}
		a.any, src, err = readSpillBool(src)
		if err == nil && a.any {
			a.v, src, err = variant.DecodeBinary(src)
		}
	case *boolAgg:
		if tag != accStateBool {
			return nil, nil, fmt.Errorf("engine: accumulator state tag %q for BOOL agg", tag)
		}
		a.any, src, err = readSpillBool(src)
		if err == nil {
			a.acc, src, err = readSpillBool(src)
		}
	case *top1Acc:
		if tag != accStateTop1 {
			return nil, nil, fmt.Errorf("engine: accumulator state tag %q for top-1 ARRAY_AGG", tag)
		}
		a.any, src, err = readSpillBool(src)
		if err == nil && a.any {
			a.best, src, err = variant.DecodeBinary(src)
		}
		for i := 0; err == nil && a.any && i < len(a.keys); i++ {
			a.keys[i], src, err = variant.DecodeBinary(src)
		}
	case *arrayAggAcc:
		if tag != accStateArrayAgg {
			return nil, nil, fmt.Errorf("engine: accumulator state tag %q for ARRAY_AGG", tag)
		}
		var n uint64
		n, src, err = readSpillUvarint(src)
		for i := uint64(0); err == nil && i < n; i++ {
			var v variant.Value
			v, src, err = variant.DecodeBinary(src)
			if err != nil {
				break
			}
			a.vals = append(a.vals, v)
			if a.distinct {
				// The seen set is exactly the group keys of the kept values.
				a.kbuf = v.AppendGroupKey(a.kbuf[:0])
				a.seen[string(a.kbuf)] = true
			}
		}
		for i := 0; err == nil && i < len(a.vals)*a.nord; i++ {
			var k variant.Value
			if k, src, err = variant.DecodeBinary(src); err == nil {
				a.orders = append(a.orders, k)
			}
		}
	default:
		return nil, nil, fmt.Errorf("engine: aggregate %T has no spillable partial state", acc)
	}
	if err != nil {
		return nil, nil, err
	}
	return acc, src, nil
}

func appendSpillBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func readSpillBool(src []byte) (bool, []byte, error) {
	if len(src) == 0 {
		return false, nil, fmt.Errorf("engine: truncated spill bool")
	}
	return src[0] != 0, src[1:], nil
}

func readSpillVarint(src []byte) (int64, []byte, error) {
	v, n := binary.Varint(src)
	if n <= 0 {
		return 0, nil, fmt.Errorf("engine: truncated spill varint")
	}
	return v, src[n:], nil
}

func readSpillUvarint(src []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, nil, fmt.Errorf("engine: truncated spill uvarint")
	}
	return v, src[n:], nil
}

// --- aggregation table state spill --------------------------------------------

// spillAggTable serializes t's groups, in insertion order, as one state run.
// Record: key bytes, key values, one partial state per aggregate.
func spillAggTable(t *aggTable) (*storage.SpillRun, error) {
	w, err := storage.NewRunWriter("agg")
	if err != nil {
		return nil, err
	}
	var rec []byte
	for _, g := range t.order {
		rec = rec[:0]
		rec = binary.AppendUvarint(rec, uint64(len(g.key)))
		rec = append(rec, g.key...)
		rec = binary.AppendUvarint(rec, uint64(len(g.keys)))
		for _, kv := range g.keys {
			rec = kv.AppendBinary(rec)
		}
		for _, acc := range g.accs {
			rec, err = encodeAccState(rec, acc)
			if err != nil {
				w.Abort()
				return nil, err
			}
		}
		if _, err := w.WriteRecord(rec); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Finish()
}

// decodeSpilledGroup restores one group record.
func decodeSpilledGroup(rec []byte, aggs []compiledAgg) (*aggGroup, error) {
	kl, rec, err := readSpillUvarint(rec)
	if err != nil {
		return nil, err
	}
	if uint64(len(rec)) < kl {
		return nil, fmt.Errorf("engine: truncated spilled group key")
	}
	g := &aggGroup{key: string(rec[:kl])}
	nk, rec, err := readSpillUvarint(rec[kl:])
	if err != nil {
		return nil, err
	}
	if nk > 0 {
		g.keys = make([]variant.Value, nk)
		for i := uint64(0); i < nk; i++ {
			g.keys[i], rec, err = variant.DecodeBinary(rec)
			if err != nil {
				return nil, err
			}
		}
	}
	g.accs = make([]accumulator, len(aggs))
	for i := range aggs {
		g.accs[i], rec, err = decodeAccState(aggs[i].spec, rec)
		if err != nil {
			return nil, err
		}
	}
	if len(rec) != 0 {
		return nil, fmt.Errorf("engine: spilled group has %d trailing bytes", len(rec))
	}
	return g, nil
}

// foldRun is the state-run reader of the ordered merge: it decodes run's
// groups and folds them into m, polling cancellation once per record — a run
// can hold far more groups than any one batch, and a cancelled query must not
// replay them all.
func (m *aggMerger) foldRun(ctx *execContext, run *storage.SpillRun, aggs []compiledAgg) error {
	rr := run.NewReader()
	for {
		if err := ctx.cancelled(); err != nil {
			return err
		}
		rec, err := rr.Next()
		if err != nil || rec == nil {
			return err
		}
		g, err := decodeSpilledGroup(rec, aggs)
		if err != nil {
			return err
		}
		if err := m.fold(g); err != nil {
			return err
		}
	}
}

// extAgg is the overflow strategy of order-exact aggregates (float SUM/AVG,
// unknown names), whose partial states do not merge: past the overflow every
// input tuple is deferred to a run — already evaluated, in input order — and
// replayed into the resident table at the end, the very fold sequence the
// in-memory path issues.
type extAgg struct {
	w   *storage.RunWriter
	run *storage.SpillRun
}

func newExtAgg() (*extAgg, error) {
	w, err := storage.NewRunWriter("aggdefer")
	if err != nil {
		return nil, err
	}
	return &extAgg{w: w}, nil
}

// replay finishes the deferral run and folds it into t.
func (x *extAgg) replay(e *aggEval, mem *opMem, t *aggTable) error {
	run, err := x.w.Finish()
	x.w = nil
	if err != nil {
		return err
	}
	x.run = run // discard removes it
	mem.noteSpill(run.Bytes())
	return e.replayTuples(mem.ctx, run, t)
}

// discard removes the deferral run; safe after replay.
func (x *extAgg) discard() {
	if x.w != nil {
		x.w.Abort()
		x.w = nil
	}
	x.run.Close()
}

// --- deferred tuple spill / replay --------------------------------------------

// spillTuples writes each active row's evaluated tuple (group values,
// argument values, order values — in that fixed shape) to the deferral run.
// Evaluating here keeps expression call order identical to the in-memory
// path, so stateful expressions (SEQ) see the same sequence either way.
func (e *aggEval) spillTuples(w *storage.RunWriter, b *vector.Batch) error {
	if err := e.dag.evalTyped(b, &e.outs); err != nil {
		return err
	}
	var rec []byte
	var rowErr error
	b.ForEach(func(i int) {
		if rowErr != nil {
			return
		}
		e.loadRow(i)
		rec = rec[:0]
		for _, v := range e.rowG {
			rec = v.AppendBinary(rec)
		}
		for a, ca := range e.aggs {
			if ca.arg >= 0 {
				rec = e.rowA[a].AppendBinary(rec)
			}
			for _, v := range e.rowO[a] {
				rec = v.AppendBinary(rec)
			}
		}
		_, rowErr = w.WriteRecord(rec)
	})
	return rowErr
}

// replayTuples folds the deferred tuples back through foldRow, in run
// (input) order — the identical fold sequence the in-memory path would have
// issued.
func (e *aggEval) replayTuples(ectx *execContext, run *storage.SpillRun, t *aggTable) error {
	rowG, rowA, rowO := e.rowG, e.rowA, e.rowO
	rr := run.NewReader()
	for {
		// Deferred runs replay the whole input; poll per tuple so a cancel
		// lands within one record, not after the full replay.
		if err := ectx.cancelled(); err != nil {
			return err
		}
		rec, err := rr.Next()
		if err != nil {
			return err
		}
		if rec == nil {
			return nil
		}
		for k := range rowG {
			rowG[k], rec, err = variant.DecodeBinary(rec)
			if err != nil {
				return err
			}
		}
		for a, ca := range e.aggs {
			rowA[a] = variant.Value{}
			if ca.arg >= 0 {
				rowA[a], rec, err = variant.DecodeBinary(rec)
				if err != nil {
					return err
				}
			}
			for j := range rowO[a] {
				rowO[a][j], rec, err = variant.DecodeBinary(rec)
				if err != nil {
					return err
				}
			}
		}
		if len(rec) != 0 {
			return fmt.Errorf("engine: deferred tuple has %d trailing bytes", len(rec))
		}
		if err := e.foldRow(t, rowG, rowA, rowO); err != nil {
			return err
		}
	}
}

// --- sort runs ----------------------------------------------------------------

// writeSortRun writes the sorted chunk's rows in refs order, each with its
// nk evaluated key values. Record: the key values, then the row's values, so
// a merge cursor decodes only its head's keys and the chosen row decodes
// straight into the output columns.
func writeSortRun(batches []*vector.Batch, keyRows [][]variant.Value, nk int, refs []rowRef) (*storage.SpillRun, error) {
	w, err := storage.NewRunWriter("sort")
	if err != nil {
		return nil, err
	}
	var rec []byte
	for _, r := range refs {
		rec = rec[:0]
		for _, v := range keyRows[r.b][int(r.i)*nk : int(r.i+1)*nk] {
			rec = v.AppendBinary(rec)
		}
		rec = appendRowBinary(rec, batches[r.b], int(r.i))
		if _, err := w.WriteRecord(rec); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Finish()
}

// sortRunCursor is one sorted run under the merge: its reader, and its head
// record's keys, decoded, and row, still encoded.
type sortRunCursor struct {
	rr   *storage.RunReader
	keys []variant.Value
	row  []byte
	done bool
}

func (c *sortRunCursor) advance() error {
	rec, err := c.rr.Next()
	if err != nil {
		return err
	}
	if rec == nil {
		c.done = true
		return nil
	}
	for k := range c.keys {
		if c.keys[k], rec, err = variant.DecodeBinary(rec); err != nil {
			return err
		}
	}
	c.row = rec
	return nil
}

// sortRunMerge is the k-way streaming merge of the sorted runs. Runs hold
// consecutive input chunks in spill order, so breaking key ties toward the
// earliest run reproduces the global stable sort exactly. The run files
// themselves are owned (and removed) by the sortIter.
type sortRunMerge struct {
	cursors []*sortRunCursor
	descs   []bool
	width   int
	size    int
	started bool
}

func newSortRunMerge(runs []*storage.SpillRun, descs []bool, width, size int) *sortRunMerge {
	cursors := make([]*sortRunCursor, len(runs))
	for i, r := range runs {
		cursors[i] = &sortRunCursor{rr: r.NewReader(), keys: make([]variant.Value, len(descs))}
	}
	return &sortRunMerge{cursors: cursors, descs: descs, width: width, size: size}
}

// NextBatch merges up to size rows, decoding each straight into the columns
// of a fresh batch; nil once every run is out.
func (m *sortRunMerge) NextBatch() (*vector.Batch, error) {
	if !m.started {
		m.started = true
		for _, c := range m.cursors {
			if err := c.advance(); err != nil {
				return nil, err
			}
		}
	}
	var cols [][]variant.Value
	for range m.size {
		c := m.head()
		if c == nil {
			break
		}
		if cols == nil {
			cols = make([][]variant.Value, m.width)
			for i := range cols {
				cols[i] = make([]variant.Value, 0, m.size)
			}
		}
		if err := decodeRowInto(cols, c.row); err != nil {
			return nil, err
		}
		if err := c.advance(); err != nil {
			return nil, err
		}
	}
	if cols == nil {
		return nil, nil
	}
	return &vector.Batch{Cols: cols}, nil
}

// head returns the cursor whose row comes next: the least keys, a tie to
// the earliest run, i.e. the earliest input chunk. It is nil once every run
// is out.
func (m *sortRunMerge) head() *sortRunCursor {
	var best *sortRunCursor
	for _, c := range m.cursors {
		if !c.done && (best == nil || compareSortKeys(m.descs, c.keys, best.keys) < 0) {
			best = c
		}
	}
	return best
}
