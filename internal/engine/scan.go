package engine

import (
	"fmt"
	"strings"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// prepareScan builds a table scan. With parallelism > 1 and more than one
// micro-partition the scan is the exchange's zero-stage case (parallel.go):
// workers claim whole partitions and materialize them concurrently, and their
// output is released in partition order, so results stay identical to the
// sequential scan.
func prepareScan(x *ScanNode, ctx *execContext) (batchIter, error) {
	colIdx, err := scanColumns(x)
	if err != nil {
		return nil, err
	}
	var filter *exprDAG
	if x.Filter != nil {
		if filter, err = compileVec(ctx, x, x.Schema(), x.Filter); err != nil {
			return nil, err
		}
	}
	parts := ctx.pinSnapshot(x.Table).Parts
	seq := &scanIter{node: x, ctx: ctx, st: ctx.statsFor(x), filter: filter, colIdx: colIdx, parts: parts}
	// A stateful pushed-down filter (SEQ8) must see rows in order; it stays
	// on the sequential scan rather than give each worker its own counter.
	if ctx.parallelism > 1 && len(parts) > 1 && !ExprStateful(x.Filter) {
		seg := &segmentPlan{scan: x, colIdx: colIdx, batch: ctx.batchSize, scanSt: seq.st, outerScan: true}
		return newExchangeIter(ctx, nil, seg, seq), nil
	}
	return seq, nil
}

// scanColumns resolves the scan's projected columns to table column indexes.
func scanColumns(x *ScanNode) ([]int, error) {
	colIdx := make([]int, len(x.Columns))
	for i, c := range x.Columns {
		if colIdx[i] = x.Table.ColumnIndex(c); colIdx[i] < 0 {
			return nil, fmt.Errorf("engine: table %q has no column %q", x.Table.Name, c)
		}
	}
	return colIdx, nil
}

// partitionPruned reports whether the zone maps rule out every row of p.
func partitionPruned(x *ScanNode, p *storage.Partition) bool {
	for _, pred := range x.Prunes {
		idx := x.Table.ColumnIndex(pred.Column)
		if idx < 0 {
			continue
		}
		if !p.MayMatch(idx, pred) {
			return true
		}
	}
	return false
}

// scanPartition cuts rows [lo, hi) of one partition's projected column chunks
// into batches of at most batchSize rows, starting at lo. Typed chunks hand
// out typed views (Slice) with a nil variant column — the typed fast path —
// and variant chunks alias the chunk storage as before; either way the batch
// is zero-copy against the partition. A persisted partition is cold-loaded
// here on first touch (EnsureLoaded), after pruning already had its say from
// the header zone maps. The pushed-down filter shrinks each batch's
// selection, and fully filtered batches are dropped. Returns the surviving
// batches and the chunk bytes read, which the range starting the partition
// (lo == 0) reports, so a partition cut into morsels counts them once.
func scanPartition(ctx *execContext, p *storage.Partition, colIdx []int, filter *exprDAG, batchSize, lo, hi int) ([]*vector.Batch, int64, error) {
	read, err := p.EnsureLoaded()
	if err != nil {
		return nil, 0, err
	}
	if read {
		ctx.countDiskRead()
	}
	hi = min(hi, p.NumRows())
	cols := make([][]variant.Value, len(colIdx))
	typed := make([]*vector.TypedCol, len(colIdx))
	anyTyped := false
	var bytes int64
	for i, idx := range colIdx {
		chunk := p.Column(idx)
		if tc := chunk.Typed(); tc != nil {
			typed[i] = tc
			anyTyped = true
		} else {
			cols[i] = chunk.Values()
		}
		if lo == 0 {
			bytes += chunk.Bytes()
		}
	}
	var out []*vector.Batch
	for ; lo < hi; lo += batchSize {
		end := min(lo+batchSize, hi)
		bcols := make([][]variant.Value, len(cols))
		var btyped []*vector.TypedCol
		if anyTyped {
			btyped = make([]*vector.TypedCol, len(cols))
		}
		for c := range cols {
			if typed[c] != nil {
				btyped[c] = typed[c].Slice(lo, end)
			} else {
				bcols[c] = cols[c][lo:end:end]
			}
		}
		b := &vector.Batch{Cols: bcols, Typed: btyped}
		if filter != nil {
			// A fresh selection per batch: scan batches are stable (they sit in
			// worker result queues and span lists), unlike a filter operator's.
			sel, err := filter.selectTrue(b, nil)
			if err != nil {
				return nil, bytes, err
			}
			if len(sel) == 0 {
				continue
			}
			b = b.WithSel(sel)
		}
		out = append(out, b)
	}
	return out, bytes, nil
}

// --- sequential scan ----------------------------------------------------------

type scanIter struct {
	node    *ScanNode
	ctx     *execContext
	st      *OpStats
	filter  *exprDAG
	colIdx  []int
	parts   []*storage.Partition
	started bool
	pi      int // next partition to open
	pending []*vector.Batch
}

func (s *scanIter) NextBatch() (*vector.Batch, error) {
	if !s.started {
		s.started = true
		s.ctx.addScanCounts(s.st, len(s.parts), 0, 0)
	}
	for {
		if len(s.pending) > 0 {
			b := s.pending[0]
			s.pending = s.pending[1:]
			return b, nil
		}
		if s.pi >= len(s.parts) {
			return nil, nil
		}
		// One NextBatch call can chew through many pruned partitions before
		// producing a batch; the envelope only polls between calls.
		if err := s.ctx.cancelled(); err != nil {
			return nil, err
		}
		p := s.parts[s.pi]
		s.pi++
		if partitionPruned(s.node, p) {
			s.ctx.addScanCounts(s.st, 0, 1, 0)
			continue
		}
		batches, bytes, err := scanPartition(s.ctx, p, s.colIdx, s.filter, s.ctx.batchSize, 0, p.NumRows())
		s.ctx.addScanCounts(s.st, 0, 0, bytes)
		if err != nil {
			return nil, err
		}
		s.pending = batches
	}
}

func (s *scanIter) Close() {}

// isRowCounter reports whether the function named name (upper case) is a
// SEQ8/SEQ4 row-number counter: each call returns the next number, so its
// value depends on how many rows were evaluated before.
func isRowCounter(name string) bool {
	return name == "SEQ8" || name == "SEQ4"
}

// ExprStateful reports whether e calls a row counter anywhere, WITHIN GROUP
// keys included, so that its result depends on evaluation order. nil
// expressions are stateless.
func ExprStateful(e sqlast.Expr) bool {
	return anyNode(e, func(n sqlast.Expr) bool {
		fc, ok := n.(*sqlast.FuncCall)
		return ok && isRowCounter(strings.ToUpper(fc.Name))
	})
}
