package engine

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"jsonpark/internal/testutil"
	"jsonpark/internal/variant"
)

// TestMVCCAppendReadStress races concurrent appenders against concurrent
// readers under -race (named *Stress* so `make stress` picks it up). Each
// appender writes rows (appender-id, 0), (appender-id, 1), ... in order and
// seals periodically; each reader runs a grouped aggregate with both caches
// enabled. Because every reader pins a partition snapshot at bind time and a
// row only becomes visible once its partition seals, a reader must observe a
// *prefix* of each appender's sequence: for every group,
// COUNT(*) == MAX(seq)+1. A torn snapshot (rows visible out of order, or a
// partition list mutating mid-scan) breaks the invariant.
func TestMVCCAppendReadStress(t *testing.T) {
	testutil.CheckLeaks(t)
	const (
		appenders    = 4
		readers      = 4
		rowsPerApp   = 400
		sealEvery    = 23
		readsPerSpin = 30
	)
	e := New(WithParallelism(2), WithResultCacheBytes(rcBytes))
	tab, err := e.Catalog().CreateTable("t", []string{"a", "s"})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, appenders+readers)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for s := 0; s < rowsPerApp; s++ {
				row := []variant.Value{variant.Int(int64(id)), variant.Int(int64(s))}
				if err := tab.Append(row); err != nil {
					errc <- err
					return
				}
				if (s+1)%sealEvery == 0 {
					tab.Seal()
				}
			}
			tab.Seal()
		}(a)
	}
	const q = `SELECT "a", COUNT(*) AS n, MAX("s") AS mx FROM "t" GROUP BY "a" ORDER BY "a"`
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readsPerSpin; i++ {
				res, err := e.Query(q)
				if err != nil {
					errc <- err
					return
				}
				for _, row := range res.Rows {
					a, n, mx := row[0].AsInt(), row[1].AsInt(), row[2].AsInt()
					if n != mx+1 {
						errc <- fmt.Errorf("appender %d: count %d != max-seq+1 %d (torn snapshot)", a, n, mx+1)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Quiesced final state: every appender's full sequence is visible.
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != appenders {
		t.Fatalf("final groups = %d, want %d", len(res.Rows), appenders)
	}
	for _, row := range res.Rows {
		if n := row[1].AsInt(); n != rowsPerApp {
			t.Fatalf("appender %d final count = %d, want %d", row[0].AsInt(), n, rowsPerApp)
		}
	}
}

// TestMVCCSnapshotStressWithViews mixes incremental view refreshes into the
// same append race: a view refresh pins its own snapshot and must absorb
// whole sealed partitions exactly once, so its count/max invariant matches
// the readers'.
func TestMVCCSnapshotStressWithViews(t *testing.T) {
	testutil.CheckLeaks(t)
	const (
		appenders  = 3
		rowsPerApp = 300
		refreshes  = 25
	)
	e := New(WithResultCacheBytes(rcBytes))
	tab, err := e.Catalog().CreateTable("t", []string{"a", "s"})
	if err != nil {
		t.Fatal(err)
	}
	const q = `SELECT "a", COUNT(*) AS n, MAX("s") AS mx FROM "t" GROUP BY "a" ORDER BY "a"`
	if err := e.CreateView("byapp", q); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, appenders+1)
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for s := 0; s < rowsPerApp; s++ {
				row := []variant.Value{variant.Int(int64(id)), variant.Int(int64(s))}
				if err := tab.Append(row); err != nil {
					errc <- err
					return
				}
				if (s+1)%17 == 0 {
					tab.Seal()
				}
			}
			tab.Seal()
		}(a)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < refreshes; i++ {
			res, err := e.QueryView(t.Context(), "byapp")
			if err != nil {
				errc <- err
				return
			}
			for _, row := range res.Rows {
				a, n, mx := row[0].AsInt(), row[1].AsInt(), row[2].AsInt()
				if n != mx+1 {
					errc <- fmt.Errorf("view: appender %d count %d != max-seq+1 %d", a, n, mx+1)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	got, err := e.QueryView(t.Context(), "byapp")
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(got) != renderRows(want) {
		t.Fatalf("quiesced view diverges from cold query:\n got %s\nwant %s",
			renderRows(got), renderRows(want))
	}
}

// TestQueryCacheDDLStress races DDL against cached readers under -race (make
// stress). A writer drops and recreates table "t" again and again, loading
// it with rows that all carry the generation g, while readers with result
// caching on run a query and read a view over it. Every answer must come
// from one generation — MIN = MAX, or an empty table caught mid-load — and
// the generation a reader sees must never go down: a stale plan, result or
// view would serve an older generation's rows. Once the churn stops, the next
// query and view read return the last generation in full.
func TestQueryCacheDDLStress(t *testing.T) {
	testutil.CheckLeaks(t)
	const (
		gens    = 200
		rows    = 60
		readers = 3
		q       = `SELECT MIN("g") AS lo, MAX("g") AS hi, COUNT(*) AS n FROM "t"`
	)
	e := New(WithParallelism(2), WithResultCacheBytes(rcBytes))
	load := func(g int) error {
		tab, err := e.Catalog().CreateTable("t", []string{"g"})
		if err != nil {
			return err
		}
		for i := 0; i < rows; i++ {
			if err := tab.Append([]variant.Value{variant.Int(int64(g))}); err != nil {
				return err
			}
			if (i+1)%17 == 0 {
				tab.Seal()
			}
		}
		tab.Seal()
		return nil
	}
	if err := load(0); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView("v", q); err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, readers+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for g := 1; g <= gens; g++ {
			e.Catalog().DropTable("t")
			if err := load(g); err != nil {
				errc <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(-1)
			for i := 0; !stop.Load(); i++ {
				var res *Result
				var err error
				if i%2 == 0 {
					res, err = e.Query(q)
				} else {
					res, err = e.QueryView(t.Context(), "v")
				}
				if err != nil {
					if strings.Contains(err.Error(), "does not exist") {
						continue
					}
					errc <- err
					return
				}
				row := res.Rows[0]
				if row[2].AsInt() == 0 {
					continue // an empty table caught mid-load
				}
				lo, hi := row[0].AsInt(), row[1].AsInt()
				if lo != hi {
					errc <- fmt.Errorf("read %d mixes generations %d..%d", i, lo, hi)
					return
				}
				if lo < last {
					errc <- fmt.Errorf("read %d went back from generation %d to %d", i, last, lo)
					return
				}
				last = lo
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	want := fmt.Sprintf("%d|%d|%d", gens, gens, rows)
	for _, read := range []func() (*Result, error){
		func() (*Result, error) { return e.Query(q) },
		func() (*Result, error) { return e.QueryView(t.Context(), "v") },
	} {
		res, err := read()
		if err != nil {
			t.Fatal(err)
		}
		row := res.Rows[0]
		if got := fmt.Sprintf("%d|%d|%d", row[0].AsInt(), row[1].AsInt(), row[2].AsInt()); got != want {
			t.Fatalf("after the churn: lo|hi|n = %s, want %s", got, want)
		}
	}
}
