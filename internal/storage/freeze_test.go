package storage_test

import (
	"bytes"
	"runtime"
	"testing"

	"jsonpark/internal/engine"
	"jsonpark/internal/hepdata"
	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
)

// liveHeapObjects collects twice and returns the live heap object count.
func liveHeapObjects() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapObjects)
}

// loadEvents appends n generated events to tab and seals it; the generated
// documents are garbage once it returns.
func loadEvents(t *testing.T, tab *storage.Table, n int) {
	t.Helper()
	for _, e := range hepdata.Events(7, n) {
		if err := tab.AppendObject(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestSealedChunksArePointerFree: sealing freezes every nested chunk into one
// pointer-free block, so 8 000 stored events are a few hundred heap objects
// (partitions, chunks, blocks, zone maps) instead of one per array, object
// and field slice (≈ 198 500 before freezing). The same holds for chunks
// read back from disk.
func TestSealedChunksArePointerFree(t *testing.T) {
	const events, bound = 8000, 2000
	before := liveHeapObjects()
	tab := storage.NewTable("adl", hepdata.Columns())
	loadEvents(t, tab, events)
	added := liveHeapObjects() - before
	t.Logf("loading and sealing %d events: %d live heap objects", events, added)
	if added >= bound {
		t.Errorf("loading and sealing %d events left %d more live heap objects, want < %d", events, added, bound)
	}
	if tab.NumRows() != events {
		t.Fatalf("table holds %d rows, want %d", tab.NumRows(), events)
	}

	dir := t.TempDir()
	c := storage.NewCatalog(dir, true)
	ptab, err := c.CreateTable("adl", hepdata.Columns())
	if err != nil {
		t.Fatal(err)
	}
	loadEvents(t, ptab, events)
	tab, ptab, c = nil, nil, nil

	before = liveHeapObjects()
	reopened := storage.NewCatalog(dir, true)
	rtab, err := reopened.Table("adl")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rtab.Partitions() {
		if _, err := p.EnsureLoaded(); err != nil {
			t.Fatal(err)
		}
	}
	added = liveHeapObjects() - before
	t.Logf("reopening and loading %d events: %d live heap objects", events, added)
	if added >= bound {
		t.Errorf("reopening and loading %d events left %d more live heap objects, want < %d", events, added, bound)
	}
	if rtab.NumRows() != events {
		t.Fatalf("reopened table holds %d rows, want %d", rtab.NumRows(), events)
	}
	runtime.KeepAlive(rtab)
}

// TestResultsOutliveDroppedTable: result rows point into the frozen blocks of
// the chunks they were scanned from, and keep those blocks alive after the
// table is dropped, collected and its memory reused. The documents are parsed
// from JSON so every key and string starts out as its own heap allocation.
func TestResultsOutliveDroppedTable(t *testing.T) {
	eng := engine.New(engine.WithPlanCacheSize(-1))
	tab, err := eng.Catalog().CreateTable("adl", hepdata.Columns())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range hepdata.Events(11, 2000) {
		if err := tab.AppendObject(variant.MustParseJSON(e.JSON())); err != nil {
			t.Fatal(err)
		}
	}
	tab.Seal()
	tab = nil
	res, err := eng.Query(`SELECT "Jet", "MET" FROM adl`)
	if err != nil {
		t.Fatal(err)
	}
	render := func() []byte {
		var b bytes.Buffer
		for _, row := range res.Rows {
			for _, v := range row {
				b.WriteString(v.JSON())
				b.WriteByte('\t')
			}
			b.WriteByte('\n')
		}
		return b.Bytes()
	}
	want := render()
	eng.Catalog().DropTable("adl")
	var garbage []variant.Value
	for round := 0; round < 4; round++ {
		runtime.GC()
		for i := 0; i < 4000; i++ {
			garbage = append(garbage, variant.MustParseJSON(`{"pt": "xxxxxxxxxxxxxxxx", "eta": [1, 2, 3]}`))
		}
		garbage = garbage[:0]
	}
	if got := render(); !bytes.Equal(got, want) {
		t.Fatalf("rows held across DropTable render differently after collections (%d vs %d bytes)", len(got), len(want))
	}
}
