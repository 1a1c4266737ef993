package vector

import (
	"testing"

	"jsonpark/internal/variant"
)

func intBatch(vals ...int64) *Batch {
	col := make([]variant.Value, len(vals))
	for i, v := range vals {
		col[i] = variant.Int(v)
	}
	return &Batch{Cols: [][]variant.Value{col}}
}

func TestBatchCounts(t *testing.T) {
	b := intBatch(1, 2, 3, 4, 5)
	if b.Width() != 1 || b.Len() != 5 || b.NumRows() != 5 {
		t.Fatalf("width=%d len=%d rows=%d", b.Width(), b.Len(), b.NumRows())
	}
	v := b.WithSel([]int{1, 3})
	if v.Len() != 5 || v.NumRows() != 2 {
		t.Fatalf("view len=%d rows=%d", v.Len(), v.NumRows())
	}
	// The view shares columns with the parent.
	if &v.Cols[0][0] != &b.Cols[0][0] {
		t.Fatal("WithSel copied columns")
	}
}

func TestBatchForEachAndAppendRows(t *testing.T) {
	b := intBatch(10, 11, 12, 13).WithSel([]int{0, 2, 3})
	var got []int64
	b.ForEach(func(i int) { got = append(got, b.Cols[0][i].AsInt()) })
	want := []int64{10, 12, 13}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	rows := b.AppendRows(nil)
	if len(rows) != 3 || rows[1][0].AsInt() != 12 {
		t.Fatalf("AppendRows = %v", rows)
	}
}

func TestBatchTruncate(t *testing.T) {
	b := intBatch(1, 2, 3, 4)
	b.Truncate(2)
	if b.NumRows() != 2 {
		t.Fatalf("rows=%d after truncate", b.NumRows())
	}
	sel := b.WithSel([]int{1, 2, 3})
	sel.Truncate(1)
	if sel.NumRows() != 1 || sel.Sel[0] != 1 {
		t.Fatalf("sel truncate: rows=%d sel=%v", sel.NumRows(), sel.Sel)
	}
	// Truncating beyond the active count is a no-op.
	sel.Truncate(10)
	if sel.NumRows() != 1 {
		t.Fatalf("over-truncate changed rows: %d", sel.NumRows())
	}
}

func TestActiveSelDense(t *testing.T) {
	b := intBatch(1, 2, 3)
	sel := b.ActiveSel()
	if len(sel) != 3 || sel[0] != 0 || sel[2] != 2 {
		t.Fatalf("dense sel = %v", sel)
	}
	view := b.WithSel([]int{2})
	if got := view.ActiveSel(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("view sel = %v", got)
	}
}

// Gather reads a source column at a parent-index vector — variant vectors
// and typed-only columns alike — into storage the caller recycles.
func TestGather(t *testing.T) {
	src := &Batch{
		Cols:  [][]variant.Value{{variant.String("a"), variant.String("b"), variant.String("c")}, nil},
		Typed: []*TypedCol{nil, NewInt64Col([]int64{10, 20, 30}, nil)},
	}
	idx := []int{2, 0, 2}
	names := src.Gather(0, idx, nil)
	nums := src.Gather(1, idx, make([]variant.Value, 0, 8))
	if src.Cols[1] != nil {
		t.Error("Gather materialized the typed column of its source")
	}
	if got := variant.Array(names...).JSON() + variant.Array(nums...).JSON(); got != `["c","a","c"][30,10,30]` {
		t.Errorf("gathered %s", got)
	}
	if n := testing.AllocsPerRun(100, func() {
		names = src.Gather(0, idx, names[:0])
		nums = src.Gather(1, idx, nums[:0])
	}); n != 0 {
		t.Errorf("Gather into recycled storage allocates %v times, want 0", n)
	}
}

// Detach copies the defined positions of a streamed batch and nothing else:
// the copy survives the producer overwriting its vectors and selection, keeps
// the physical layout (row references stay valid), and leaves typed views
// shared.
func TestDetach(t *testing.T) {
	reg := []variant.Value{variant.String("stale0"), variant.Int(1), variant.String("stale2"), variant.Int(3)}
	sel := []int{1, 3}
	tc := NewInt64Col([]int64{7, 8, 9, 10}, nil)
	streamed := &Batch{Cols: [][]variant.Value{reg, nil}, Sel: sel, Typed: []*TypedCol{nil, tc}}
	kept := streamed.Detach()
	Poison(reg)
	PoisonSel(sel)
	if kept.NumRows() != 2 || kept.Len() != 4 || kept.TypedCol(1) != tc {
		t.Fatalf("detached batch: rows=%d len=%d typed=%v", kept.NumRows(), kept.Len(), kept.TypedCol(1))
	}
	for i, want := range []string{"null", "1", "null", "3"} {
		if got := kept.Cols[0][i].JSON(); got != want {
			t.Errorf("detached [%d] = %s, want %s (inactive positions must not be carried)", i, got, want)
		}
	}
	var rows []string
	kept.ForEach(func(i int) { rows = append(rows, variant.Array(kept.Value(0, i), kept.Value(1, i)).JSON()) })
	if len(rows) != 2 || rows[0] != `[1,8]` || rows[1] != `[3,10]` {
		t.Errorf("detached rows = %v", rows)
	}
	dense := intBatch(4, 5).Detach()
	if dense.Sel != nil || dense.Cols[0][1].AsInt() != 5 {
		t.Errorf("dense detach = %+v", dense)
	}
}

// A register's typed view is recycled storage, so Detach copies it — values
// and NULLs — where it shares a chunk view: the copy survives the owner
// resetting and poisoning the register for its next batch.
func TestDetachCopiesRegisters(t *testing.T) {
	var reg TypedCol
	reg.Reset(TypedFloat64, 3)
	copy(reg.Floats(), []float64{1.5, 2.5, 3.5})
	reg.SetNull(1)
	chunk := NewInt64Col([]int64{7, 8, 9}, nil)
	kept := (&Batch{Cols: make([][]variant.Value, 2), Typed: []*TypedCol{&reg, chunk}}).Detach()
	PoisonTyped(&reg)
	reg.Reset(TypedBool, 3)
	if kept.TypedCol(1) != chunk || kept.TypedCol(0) == &reg {
		t.Fatalf("detach shared the register or copied the chunk view")
	}
	if got := variant.Array(kept.Column(0)...).JSON(); got != `[1.5,null,3.5]` {
		t.Errorf("detached register = %s", got)
	}
}

// Compact copies only a batch's active rows, densely, every column in its
// representation — a variant vector, a number register, a dictionary or
// plain string view with its NULLs — so the copy survives the producer
// poisoning its registers and selection and reads the same rows.
func TestCompact(t *testing.T) {
	var reg TypedCol
	reg.Reset(TypedFloat64, 4)
	copy(reg.Floats(), []float64{0.5, 1.5, 2.5, 3.5})
	reg.SetNull(3)
	vals := []variant.Value{variant.Int(0), variant.String("one"), variant.Int(2), variant.Int(3)}
	dictNulls := make([]uint64, 1)
	SetNullBit(dictNulls, 1)
	dict := NewDictCol([]string{"x", "y"}, []uint32{0, 1, 1, 0}, dictNulls)
	strs := NewStringCol([]string{"a", "b", "c", "d"}, nil)
	sel := []int{1, 3}
	src := &Batch{Cols: [][]variant.Value{vals, nil, nil, nil}, Typed: []*TypedCol{nil, &reg, dict, strs}, Sel: sel}
	row := func(b *Batch, i int) string {
		return variant.Array(b.Value(0, i), b.Value(1, i), b.Value(2, i), b.Value(3, i)).JSON()
	}
	var want []string
	src.ForEach(func(i int) { want = append(want, row(src, i)) })
	kept := src.Compact()
	Poison(vals)
	PoisonTyped(&reg)
	PoisonSel(sel)
	if kept.Sel != nil || kept.Len() != 2 || kept.TypedCol(2).Kind() != TypedString || kept.TypedCol(1).Kind() != TypedFloat64 {
		t.Fatalf("compacted batch: sel=%v len=%d", kept.Sel, kept.Len())
	}
	for k, w := range want {
		if got := row(kept, k); got != w {
			t.Errorf("compacted row %d = %s, want %s", k, got, w)
		}
	}
	if len(want) != 2 || want[0] != `["one",1.5,null,"b"]` || want[1] != `[3,null,"x","d"]` {
		t.Errorf("source rows = %v", want)
	}
}

// A register keeps its storage across Resets, takes NULLs on demand, gathers
// a typed column through a parent-index vector, and refills without
// allocating once warm.
func TestRegisterResetGatherNulls(t *testing.T) {
	src := NewInt64Col([]int64{10, 20, 30, 40}, make([]uint64, 1))
	SetNullBit(src.nulls, 2)
	view, idx := src.Slice(1, 4), []int{2, 1, 0, 1}
	var reg TypedCol
	fill := func() { view.Gather(idx, &reg) }
	fill()
	if got := variant.Array(reg.Materialize(nil)...).JSON(); got != `[40,null,20,null]` || !reg.HasNulls() {
		t.Errorf("gathered %s", got)
	}
	reg.Reset(TypedBool, 4)
	if reg.HasNulls() || reg.Len() != 4 {
		t.Errorf("Reset kept NULLs or length: nulls=%v len=%d", reg.HasNulls(), reg.Len())
	}
	reg.SetNull(3)
	reg.SetLen(2)
	if reg.Len() != 2 || len(reg.Bools()) != 2 || reg.Null(1) {
		t.Errorf("SetLen: len=%d null(1)=%v", reg.Len(), reg.Null(1))
	}
	if n := testing.AllocsPerRun(100, func() { fill(); reg.SetNull(0) }); n != 0 {
		t.Errorf("refilling a warm register allocates %v times, want 0", n)
	}
}

// DictMemo computes its table once per dictionary and again only when a
// column with another dictionary arrives.
func TestDictMemo(t *testing.T) {
	dict := []string{"a", "b", "c"}
	calls := 0
	isB := func(d []string, table []bool) {
		calls++
		for c, s := range d {
			table[c] = s == "b"
		}
	}
	var m DictMemo
	col := NewDictCol(dict, []uint32{1, 0, 2}, nil)
	for _, view := range []*TypedCol{col, col.Slice(1, 3), col} {
		if table := m.Table(view, isB); len(table) != 3 || !table[1] || table[0] {
			t.Fatalf("table = %v", table)
		}
	}
	if calls != 1 {
		t.Errorf("one dictionary filled %d times", calls)
	}
	m.Table(NewDictCol([]string{"a", "b", "c"}, []uint32{0}, nil), isB)
	if calls != 2 {
		t.Errorf("a second dictionary did not refill the table")
	}
}

func TestActiveAt(t *testing.T) {
	b := intBatch(10, 11, 12, 13)
	if b.ActiveAt(2) != 2 || b.WithSel([]int{1, 3}).ActiveAt(1) != 3 {
		t.Error("ActiveAt does not follow the selection")
	}
}
