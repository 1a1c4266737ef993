package vector

import (
	"strings"
	"testing"

	"jsonpark/internal/variant"
)

func intColWithNulls(vals []int64, nullAt ...int) *TypedCol {
	bm := make([]uint64, NullBitmapWords(len(vals)))
	for _, i := range nullAt {
		SetNullBit(bm, i)
	}
	return NewInt64Col(vals, bm)
}

func TestTypedColSliceAndNulls(t *testing.T) {
	tc := intColWithNulls([]int64{10, 20, 30, 40, 50, 60, 70}, 1, 5)
	if tc.Len() != 7 || tc.Kind() != TypedInt64 || !tc.HasNulls() {
		t.Fatalf("bad col: len=%d kind=%v", tc.Len(), tc.Kind())
	}
	view := tc.Slice(3, 7) // rows 40,50,60(null),70
	if view.Len() != 4 {
		t.Fatalf("view len = %d", view.Len())
	}
	wantNull := []bool{false, false, true, false}
	for i, w := range wantNull {
		if view.Null(i) != w {
			t.Errorf("view.Null(%d) = %v, want %v", i, view.Null(i), w)
		}
	}
	if got := view.Ints()[0]; got != 40 {
		t.Errorf("view.Ints()[0] = %d", got)
	}
	got := view.Materialize(nil)
	want := []variant.Value{variant.Int(40), variant.Int(50), variant.Null, variant.Int(70)}
	for i := range want {
		if !variant.BinaryEqual(got[i], want[i]) {
			t.Errorf("materialized[%d] = %s, want %s", i, got[i].JSON(), want[i].JSON())
		}
	}
}

func TestTypedColKinds(t *testing.T) {
	f := NewFloat64Col([]float64{1.5, 2.5}, nil)
	if f.HasNulls() || f.Null(1) {
		t.Error("nil bitmap must mean no nulls")
	}
	if got := f.Materialize(nil); !variant.BinaryEqual(got[1], variant.Float(2.5)) {
		t.Errorf("float materialize = %s", got[1].JSON())
	}
	s := NewStringCol([]string{"a", "b"}, nil)
	if s.StringAt(1) != "b" {
		t.Errorf("StringAt = %q", s.StringAt(1))
	}
	d := NewDictCol([]string{"x", "y"}, []uint32{1, 0, 1}, nil)
	if d.Kind() != TypedString || d.Len() != 3 || d.StringAt(0) != "y" || d.Strs() != nil {
		t.Errorf("dict col: kind=%v len=%d at0=%q", d.Kind(), d.Len(), d.StringAt(0))
	}
	dv := d.Slice(1, 3)
	if dv.StringAt(1) != "y" || len(dv.Dict()) != 2 {
		t.Errorf("dict slice: at1=%q dict=%v", dv.StringAt(1), dv.Dict())
	}
	bc := NewBoolCol([]bool{true, false}, nil)
	if got := bc.Materialize(nil); !variant.BinaryEqual(got[0], variant.Bool(true)) {
		t.Errorf("bool materialize = %s", got[0].JSON())
	}
}

func TestBatchTypedColumnMaterializeCaches(t *testing.T) {
	tc := intColWithNulls([]int64{1, 2, 3}, 1)
	b := &Batch{Cols: make([][]variant.Value, 1), Typed: []*TypedCol{tc}}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3 from the typed view", b.Len())
	}
	if b.TypedCol(0) != tc {
		t.Fatal("TypedCol(0) lost the view")
	}
	col := b.Column(0)
	if len(col) != 3 || !col[1].IsNull() || col[2].AsInt() != 3 {
		t.Fatalf("materialized column = %v", col)
	}
	if &b.Column(0)[0] != &col[0] {
		t.Error("second Column call re-materialized instead of caching")
	}
	// Views share the Cols backing array, so materialization through a view
	// is seen by the parent and vice versa.
	view := b.WithSel([]int{0, 2})
	if &view.Column(0)[0] != &col[0] {
		t.Error("view materialized its own copy")
	}
	rows := view.AppendRows(nil)
	if len(rows) != 2 || rows[1][0].AsInt() != 3 {
		t.Fatalf("AppendRows over typed batch = %v", rows)
	}
}

func TestBatchValueOverTypedColumn(t *testing.T) {
	b := &Batch{
		Cols:  make([][]variant.Value, 2),
		Typed: []*TypedCol{NewInt64Col([]int64{7, 8}, nil), nil},
	}
	b.Cols[1] = []variant.Value{variant.String("a"), variant.String("b")}
	if v0, v1 := b.Value(0, 1), b.Value(1, 1); v0.AsInt() != 8 || v1.AsString() != "b" {
		t.Fatalf("row 1 = %v, %v", v0, v1)
	}
	if b.Cols[0] != nil {
		t.Error("Value materialized the typed column")
	}
}

// TestStringRegister: a string register gathers plain and dictionary-encoded
// columns, NULLs included, as plain strings; shrinks with SetLen; is copied
// by Detach, so a refill does not reach the copy; and is poisoned whole.
func TestStringRegister(t *testing.T) {
	nulls := make([]uint64, 1)
	SetNullBit(nulls, 1)
	dict := NewDictCol([]string{"x", "y"}, []uint32{1, 0, 1, 0}, nulls)
	plain := NewStringCol([]string{"a", "b", "c", "d"}, nulls)
	var reg TypedCol
	for _, c := range []struct {
		src  *TypedCol
		want string
	}{{dict, "x,null,y,y"}, {plain, "d,null,c,c"}} {
		c.src.Gather([]int{3, 1, 2, 2}, &reg)
		if got := joinStrings(&reg); got != c.want || reg.Kind() != TypedString || reg.Codes() != nil {
			t.Errorf("gathered %s, want %s", got, c.want)
		}
	}
	reg.SetLen(2)
	if got := joinStrings(&reg); got != "d,null" {
		t.Errorf("after SetLen(2): %s", got)
	}
	kept := (&Batch{Cols: make([][]variant.Value, 1), Typed: []*TypedCol{&reg}}).Detach()
	plain.Gather([]int{0, 0}, &reg)
	if got := joinStrings(kept.Typed[0]); got != "d,null" {
		t.Errorf("detached copy reads %s after the register's refill", got)
	}
	PoisonTyped(&reg)
	if reg.Strs()[0] != PoisonValue.AsString() {
		t.Errorf("poisoned register reads %q", reg.Strs()[0])
	}
}

func joinStrings(t *TypedCol) string {
	out := make([]string, t.Len())
	for i := range out {
		out[i] = "null"
		if !t.Null(i) {
			out[i] = t.StringAt(i)
		}
	}
	return strings.Join(out, ",")
}
