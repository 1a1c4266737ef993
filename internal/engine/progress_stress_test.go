package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jsonpark/internal/testutil"
)

// TestProgressFanOutStress: snapshot readers poll ProgressSnapshot in a loop
// while fanned-out aggregates and exchanges run at parallelism 4 — to the
// end, cut short under LIMIT, or cancelled mid-flight. Worker chains add into
// the records the readers load, so under -race (`make stress`) this is the
// gate for the shared per-node records; every query must leave no goroutine
// behind.
func TestProgressFanOutStress(t *testing.T) {
	testutil.CheckLeaks(t)
	agg := multiPartEngine(t, WithBatchSize(4), WithParallelism(4))
	xch := oneTableEngine(t, itemDocs(3000), 64, WithBatchSize(16), WithParallelism(4), WithMemLimit(1<<30))
	type job struct {
		e   *Engine
		sql string
	}
	jobs := []job{
		{agg, `SELECT "grp", COUNT(*), MIN("val") FROM "events" GROUP BY "grp"`},
		{agg, `SELECT "grp", ARRAY_AGG("id") FROM "events" GROUP BY "grp" LIMIT 1`},
		{xch, `SELECT "rid", COUNT(*) FROM ` + ridFlatT + ` GROUP BY "rid"`},
		{xch, `SELECT "rid", ARRAY_AGG("f".VALUE) FROM ` + ridFlatT + ` GROUP BY "rid" LIMIT 3`},
	}

	var done atomic.Bool
	var readers sync.WaitGroup
	for range 3 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for !done.Load() {
				for _, e := range []*Engine{agg, xch} {
					for _, q := range e.ProgressSnapshot() {
						for _, op := range q.Operators {
							if op.Rows < 0 || op.Batches < 0 || op.MemBytes < 0 {
								t.Errorf("negative live counter: %+v", op)
							}
						}
					}
				}
			}
		}()
	}

	var runners sync.WaitGroup
	errs := make(chan error, 4)
	for g := range 4 {
		runners.Add(1)
		go func() {
			defer runners.Done()
			for i := range 12 {
				j := jobs[(g+i)%len(jobs)]
				p, err := j.e.Prepare(j.sql)
				if err != nil {
					errs <- err
					return
				}
				ctx, cancel := context.WithCancel(context.Background())
				if i%3 == 2 {
					time.AfterFunc(time.Duration(i%4)*200*time.Microsecond, cancel)
				}
				_, err = p.RunCtx(ctx)
				cancel()
				if err != nil && !errors.Is(err, context.Canceled) {
					errs <- err
					return
				}
			}
		}()
	}
	runners.Wait()
	done.Store(true)
	readers.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, e := range []*Engine{agg, xch} {
		if live := e.ProgressSnapshot(); len(live) != 0 {
			t.Fatalf("finished queries still listed: %d", len(live))
		}
	}
}
