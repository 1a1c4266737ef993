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

func TestBuilderEmitsFixedSizeBatches(t *testing.T) {
	bu := NewBuilder(2, 3)
	for i := 0; i < 7; i++ {
		bu.Append([]variant.Value{variant.Int(int64(i)), variant.String("x")})
	}
	var sizes []int
	for b := bu.Pop(); b != nil; b = bu.Pop() {
		sizes = append(sizes, b.NumRows())
	}
	if len(sizes) != 2 || sizes[0] != 3 || sizes[1] != 3 {
		t.Fatalf("full batches = %v", sizes)
	}
	tail := bu.Flush()
	if tail == nil || tail.NumRows() != 1 || tail.Cols[0][0].AsInt() != 6 {
		t.Fatalf("flush = %+v", tail)
	}
	if bu.Flush() != nil {
		t.Fatal("second flush not nil")
	}
}

func TestBuilderRowOrderPreserved(t *testing.T) {
	bu := NewBuilder(1, 4)
	for i := 0; i < 10; i++ {
		bu.Append([]variant.Value{variant.Int(int64(i))})
	}
	var got []int64
	drain := func(b *Batch) {
		if b == nil {
			return
		}
		b.ForEach(func(i int) { got = append(got, b.Cols[0][i].AsInt()) })
	}
	for b := bu.Pop(); b != nil; b = bu.Pop() {
		drain(b)
	}
	drain(bu.Flush())
	for i, v := range got {
		if int64(i) != v {
			t.Fatalf("order broken at %d: %v", i, got)
		}
	}
	if len(got) != 10 {
		t.Fatalf("lost rows: %v", got)
	}
}

// AppendFrom reads the source batch column by column — variant vectors and
// typed-only columns alike — and splits at the batch size like Append.
func TestBuilderAppendFrom(t *testing.T) {
	src := &Batch{
		Cols:  [][]variant.Value{{variant.String("a"), variant.String("b"), variant.String("c")}, nil},
		Typed: []*TypedCol{nil, NewInt64Col([]int64{10, 20, 30}, nil)},
	}
	bu := NewBuilder(4, 2)
	for _, i := range []int{2, 0, 2} {
		bu.AppendFrom(src, i, variant.Int(int64(i)), variant.Null)
	}
	if src.Cols[1] != nil {
		t.Error("AppendFrom materialized the typed column of its source")
	}
	var got []string
	drain := func(b *Batch) {
		if b == nil {
			return
		}
		if b.Width() != 4 {
			t.Fatalf("width = %d, want 4", b.Width())
		}
		b.ForEach(func(i int) {
			got = append(got, variant.Array(b.Row(i, nil)...).JSON())
		})
	}
	full := bu.Pop()
	if full == nil || full.NumRows() != 2 || bu.Pop() != nil {
		t.Fatalf("first batch = %+v, want exactly one full batch of 2", full)
	}
	drain(full)
	drain(bu.Flush())
	want := []string{`["c",30,2,null]`, `["a",10,0,null]`, `["c",30,2,null]`}
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestBuilderAppendFromDoesNotAllocatePerRow(t *testing.T) {
	src := intBatch(1, 2, 3, 4)
	bu := NewBuilder(3, 1<<20) // one batch: its vectors are allocated on the first row
	bu.AppendFrom(src, 0, variant.Int(0), variant.Null)
	if n := testing.AllocsPerRun(1000, func() {
		bu.AppendFrom(src, 3, variant.String("tail"), variant.Int(7))
	}); n != 0 {
		t.Fatalf("AppendFrom allocates %v times per row, want 0", n)
	}
}

// CopyActive takes the defined positions of a kernel buffer and nothing
// else: whatever a previous batch left at the inactive positions must not be
// carried into (and kept alive by) the emitted column.
func TestCopyActive(t *testing.T) {
	buf := []variant.Value{variant.String("stale0"), variant.Int(1), variant.String("stale2"), variant.Int(3)}
	dense := intBatch(0, 0, 0, 0)
	got := dense.CopyActive(buf)
	if &got[0] == &buf[0] {
		t.Fatal("CopyActive aliased the kernel buffer")
	}
	for i := range buf {
		if got[i].JSON() != buf[i].JSON() {
			t.Errorf("dense copy [%d] = %v, want %v", i, got[i], buf[i])
		}
	}
	sparse := dense.WithSel([]int{1, 3}).CopyActive(buf)
	if len(sparse) != len(buf) {
		t.Fatalf("sparse copy has %d rows, want physical length %d", len(sparse), len(buf))
	}
	for i, want := range []string{"null", "1", "null", "3"} {
		if sparse[i].JSON() != want {
			t.Errorf("sparse copy [%d] = %v, want %s", i, sparse[i], want)
		}
	}
	if empty := dense.WithSel([]int{}).CopyActive(buf); len(empty) != len(buf) || !empty[1].IsNull() {
		t.Errorf("empty selection copied %v", empty)
	}
}
