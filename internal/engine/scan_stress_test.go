package engine

import (
	"sync"
	"testing"

	"jsonpark/internal/testutil"
)

// TestParallelScanLimitEarlyCloseStress hammers the morsel pool's shutdown
// path: a LIMIT satisfied after a handful of batches closes the scan while
// its workers are still producing, so Close must stop the pool and reap
// every worker goroutine without racing the in-flight sends. Run under
// -race (make race) this is the regression test for the stop-channel
// handshake of the scan's exchange (exchangeIter).
func TestParallelScanLimitEarlyCloseStress(t *testing.T) {
	testutil.CheckLeaks(t)
	e := multiPartEngine(t, WithBatchSize(4), WithParallelism(8))
	queries := []string{
		`SELECT id FROM events LIMIT 3`,
		`SELECT id, val FROM events WHERE grp < 5 LIMIT 7`,
		`SELECT id FROM events LIMIT 1`,
	}
	for i := 0; i < 100; i++ {
		sql := queries[i%len(queries)]
		res, err := e.Query(sql)
		if err != nil {
			t.Fatalf("iteration %d %s: %v", i, sql, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("iteration %d %s: no rows", i, sql)
		}
	}

	// The same shutdown storm from concurrent consumers sharing the engine.
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := e.Query(queries[(g+i)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPreparedCloseWithoutDrain covers the other early-close shape: a
// prepared query abandoned before (or mid-) drain.
func TestPreparedCloseWithoutDrain(t *testing.T) {
	testutil.CheckLeaks(t)
	e := multiPartEngine(t, WithBatchSize(4), WithParallelism(8))
	for i := 0; i < 100; i++ {
		p, err := e.Prepare(`SELECT id, val FROM events WHERE val > 1`)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			if _, err := p.iter.NextBatch(); err != nil {
				t.Fatal(err)
			}
		}
		p.iter.Close()
	}
}
