// Package vector defines the columnar batch that flows between the engine's
// executor operators. A Batch is a fixed-capacity slice of column vectors of
// variant values plus an optional selection vector: filters shrink the
// selection instead of copying survivors, and scans hand out zero-copy views
// of the micro-partitions' column chunks. The layout follows the vectorized
// execution model of MonetDB/X100 and DuckDB, scaled to the embedded engine.
package vector

import "jsonpark/internal/variant"

// DefaultBatchSize is the number of rows one batch targets. At 24 bytes per
// variant.Value a 1024-row column vector is 24 KB, so a batch of a few
// columns stays inside the L2 cache while per-batch operator overhead is
// amortized over ~1000 rows.
const DefaultBatchSize = 1024

// Batch is one unit of columnar data flow. Cols holds the column vectors,
// all of equal length (the physical row count). Sel, when non-nil, lists the
// physical indices of the active (surviving) rows in increasing order;
// a nil Sel means every physical row is active.
//
// Typed, when non-nil, carries per-column typed views (parallel to Cols):
// Typed[c] non-nil means column c has a monomorphic encoding that typed
// expression kernels can run over directly, and Cols[c] may be nil until a
// consumer asks for the variant representation through Column — the
// materialize-to-variant escape hatch that keeps every row-oriented
// consumer working unchanged.
//
// Column vectors may alias storage owned by others (scan batches alias the
// micro-partition chunks; projections alias their inputs and their
// expression registers), so consumers must never mutate Cols in place.
//
// Lifetime: a batch handed out by a streaming operator (project, filter,
// flatten, a join probing a build whose keys are all distinct) is valid
// until that operator's next NextBatch, which recycles the header, the
// selection and every vector the operator owns. Scan batches and the output
// of materializing operators (aggregate, sort, a join with duplicate keys or
// a left build), which write each batch into fresh vectors, are stable. A
// consumer that keeps a batch across its producer's next call copies it
// (Detach, or a dense Gather).
type Batch struct {
	Cols  [][]variant.Value
	Sel   []int
	Typed []*TypedCol
}

// Width returns the number of columns.
func (b *Batch) Width() int { return len(b.Cols) }

// Len returns the physical row count (including filtered-out rows).
func (b *Batch) Len() int {
	for c, col := range b.Cols {
		if col != nil {
			return len(col)
		}
		if c < len(b.Typed) && b.Typed[c] != nil {
			return b.Typed[c].Len()
		}
	}
	return 0
}

// TypedCol returns column c's typed view, or nil when the column only has a
// variant representation.
func (b *Batch) TypedCol(c int) *TypedCol {
	if c < len(b.Typed) {
		return b.Typed[c]
	}
	return nil
}

// Column returns column c as variants, materializing a typed-only column on
// first access. The materialized vector is cached in Cols, so repeated reads
// (and views created by WithSel, which share the Cols backing array) pay the
// conversion once. The result must be treated as read-only like any column.
func (b *Batch) Column(c int) []variant.Value {
	if b.Cols[c] == nil {
		if tc := b.TypedCol(c); tc != nil {
			b.Cols[c] = tc.Materialize(make([]variant.Value, 0, tc.Len()))
		}
	}
	return b.Cols[c]
}

// Value returns the variant at (column c, physical row i). A typed-only
// column converts the single row in place instead of materializing the whole
// vector — the right trade for row-wise consumers (spill row encoding,
// memory charging) that read each row at most once.
func (b *Batch) Value(c, i int) variant.Value {
	if b.Cols[c] != nil {
		return b.Cols[c][i]
	}
	if tc := b.TypedCol(c); tc != nil {
		return tc.ValueAt(i)
	}
	return variant.Null
}

// NumRows returns the active row count.
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return b.Len()
}

// WithSel returns a view of the batch restricted to the given physical
// indices. The column vectors (and typed views) are shared, so the view is
// free to construct; a materialization through either view is visible to
// both, since they share the Cols backing array.
func (b *Batch) WithSel(sel []int) *Batch { return &Batch{Cols: b.Cols, Sel: sel, Typed: b.Typed} }

// ForEach calls fn with the physical index of every active row, in order.
func (b *Batch) ForEach(fn func(phys int)) {
	if b.Sel != nil {
		for _, i := range b.Sel {
			fn(i)
		}
		return
	}
	n := b.Len()
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// ActiveSel returns the active physical indices as a slice. When Sel is nil
// a fresh dense selection is allocated, otherwise Sel itself is returned;
// callers must treat the result as read-only.
func (b *Batch) ActiveSel() []int {
	if b.Sel != nil {
		return b.Sel
	}
	n := b.Len()
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return sel
}

// ActiveAt returns the physical index of the k-th active row
// (0 <= k < NumRows), for consumers that walk a batch with a cursor they
// keep between calls.
func (b *Batch) ActiveAt(k int) int {
	if b.Sel != nil {
		return b.Sel[k]
	}
	return k
}

// Detach returns a copy of the batch that owns its storage. A batch from a
// streaming operator (project, filter, flatten, a streaming join) is valid
// only until that operator's next NextBatch — its vectors are registers and
// recycled columns — so a consumer that keeps batches (the exchange's
// workers) detaches each one on arrival. The copy keeps the physical
// layout: vectors of the same length holding the active positions (NULL elsewhere, where the
// source is undefined anyway) and a private selection, so row references
// into the original stay valid. A typed view of immutable chunk storage is
// shared as it is; a register (an expression result, a FLATTEN column) is
// recycled storage and is copied.
func (b *Batch) Detach() *Batch {
	out := &Batch{Cols: make([][]variant.Value, len(b.Cols))}
	if b.Sel != nil {
		out.Sel = append(make([]int, 0, len(b.Sel)), b.Sel...)
	}
	if b.Typed != nil {
		out.Typed = make([]*TypedCol, len(b.Typed))
		for c, tc := range b.Typed {
			if tc != nil && tc.reg {
				tc = tc.clone()
			}
			out.Typed[c] = tc
		}
	}
	for c, col := range b.Cols {
		if col == nil {
			continue
		}
		out.Cols[c] = make([]variant.Value, len(col))
		if b.Sel == nil {
			copy(out.Cols[c], col)
			continue
		}
		for _, i := range b.Sel {
			out.Cols[c][i] = col[i]
		}
	}
	return out
}

// Compact returns a dense copy of the batch's active rows in storage of its
// own, each column kept in its representation — variant, typed, or both.
// Where few rows of a batch are active it is the cheaper way to keep it:
// Detach copies every physical row of every register.
func (b *Batch) Compact() *Batch {
	sel := b.ActiveSel()
	out := &Batch{Cols: make([][]variant.Value, len(b.Cols))}
	for c, col := range b.Cols {
		if tc := b.TypedCol(c); tc != nil {
			if out.Typed == nil {
				out.Typed = make([]*TypedCol, len(b.Cols))
			}
			out.Typed[c] = tc.Copy(sel)
		}
		if col != nil {
			out.Cols[c] = make([]variant.Value, len(sel))
			for k, i := range sel {
				out.Cols[c][k] = col[i]
			}
		}
	}
	return out
}

// Gather appends column c's values at the physical rows idx to dst and
// returns it: the column-at-a-time half of an expanding operator (FLATTEN
// replicates each parent column through its parent-index vector, the join
// each probe column through its pairs' rows) and of the dense copies the
// join's build side and the sort retain. A typed column converts as it is
// gathered.
func (b *Batch) Gather(c int, idx []int, dst []variant.Value) []variant.Value {
	if col := b.Cols[c]; col != nil {
		for _, i := range idx {
			dst = append(dst, col[i])
		}
		return dst
	}
	if tc := b.TypedCol(c); tc != nil {
		for _, i := range idx {
			dst = append(dst, tc.ValueAt(i))
		}
		return dst
	}
	for range idx {
		dst = append(dst, variant.Null)
	}
	return dst
}

// AppendRows materializes every active row and appends them to rows: how a
// query's result leaves the engine.
func (b *Batch) AppendRows(rows [][]variant.Value) [][]variant.Value {
	for c := range b.Cols {
		b.Column(c)
	}
	b.ForEach(func(i int) {
		row := make([]variant.Value, len(b.Cols))
		for c := range b.Cols {
			row[c] = b.Cols[c][i]
		}
		rows = append(rows, row)
	})
	return rows
}

// Truncate drops all but the first n active rows.
func (b *Batch) Truncate(n int) {
	if n >= b.NumRows() {
		return
	}
	if b.Sel == nil {
		b.Sel = b.ActiveSel()
	}
	b.Sel = b.Sel[:n]
}
