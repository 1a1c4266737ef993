package vector

import (
	"testing"

	"jsonpark/internal/variant"
)

// An empty (non-nil) selection vector means zero active rows — distinct
// from nil, which means all rows active. Every accessor must honor the
// difference.
func TestEmptySelectionVector(t *testing.T) {
	b := &Batch{
		Cols: [][]variant.Value{{variant.Int(1), variant.Int(2)}},
		Sel:  []int{},
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2 (physical rows unaffected by Sel)", b.Len())
	}
	if b.NumRows() != 0 {
		t.Errorf("NumRows = %d, want 0", b.NumRows())
	}
	calls := 0
	b.ForEach(func(int) { calls++ })
	if calls != 0 {
		t.Errorf("ForEach visited %d rows, want 0", calls)
	}
	if rows := b.AppendRows(nil); len(rows) != 0 {
		t.Errorf("AppendRows produced %d rows, want 0", len(rows))
	}
	if sel := b.ActiveSel(); len(sel) != 0 {
		t.Errorf("ActiveSel = %v, want empty", sel)
	}
	b.Truncate(0)
	if b.NumRows() != 0 {
		t.Errorf("NumRows after Truncate(0) = %d, want 0", b.NumRows())
	}
}

// A nil column vector is a zero-row column; batches built around one must
// not panic and must report zero rows consistently.
func TestNilColumnVector(t *testing.T) {
	b := &Batch{Cols: [][]variant.Value{nil}}
	if b.Len() != 0 || b.NumRows() != 0 {
		t.Errorf("Len/NumRows = %d/%d, want 0/0", b.Len(), b.NumRows())
	}
	b.ForEach(func(int) { t.Error("ForEach visited a row of a nil column") })
	if rows := b.AppendRows(nil); len(rows) != 0 {
		t.Errorf("AppendRows produced %d rows, want 0", len(rows))
	}

	empty := &Batch{}
	if empty.Width() != 0 || empty.Len() != 0 || empty.NumRows() != 0 {
		t.Errorf("zero batch Width/Len/NumRows = %d/%d/%d, want zeros",
			empty.Width(), empty.Len(), empty.NumRows())
	}
	if sel := empty.ActiveSel(); len(sel) != 0 {
		t.Errorf("zero batch ActiveSel = %v, want empty", sel)
	}
}

func TestTruncateBeyondActiveRowsIsNoop(t *testing.T) {
	b := &Batch{
		Cols: [][]variant.Value{{variant.Int(1), variant.Int(2), variant.Int(3)}},
		Sel:  []int{0, 2},
	}
	b.Truncate(5)
	if b.NumRows() != 2 {
		t.Errorf("NumRows = %d, want 2", b.NumRows())
	}
	dense := &Batch{Cols: [][]variant.Value{{variant.Int(1), variant.Int(2), variant.Int(3)}}}
	dense.Truncate(1)
	if dense.NumRows() != 1 || dense.Sel == nil || dense.Sel[0] != 0 {
		t.Errorf("dense Truncate(1): NumRows=%d Sel=%v, want 1 row at phys 0", dense.NumRows(), dense.Sel)
	}
}
