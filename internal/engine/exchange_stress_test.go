package engine

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"jsonpark/internal/testutil"
)

// The exchange's shutdown paths, named *Stress so `make stress` runs them
// under -race with -count 5: every query must leave no worker goroutine
// behind (CheckLeaks) and no accounted byte charged.

// TestExchangeLimitEarlyCloseStress: a LIMIT directly above an exchange
// closes it while workers are mid-morsel or waiting for a window token.
func TestExchangeLimitEarlyCloseStress(t *testing.T) {
	testutil.CheckLeaks(t)
	e := oneTableEngine(t, itemDocs(3000), 64, WithBatchSize(16), WithParallelism(8))
	queries := []string{
		`SELECT "rid", COUNT(*) FROM ` + ridFlatT + ` GROUP BY "rid" LIMIT 3`,
		`SELECT "id", "f".VALUE FROM (SELECT * FROM "t"), LATERAL FLATTEN(INPUT => "items") AS "f" LIMIT 7`,
		`SELECT "rid", ARRAY_AGG("f".VALUE) FROM ` + ridFlatT + ` GROUP BY "rid" LIMIT 1`,
	}
	for _, sql := range queries {
		plan, err := e.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		if !limitOverExchange(plan) {
			t.Fatalf("%s: no LIMIT directly above an exchange:\n%s", sql, plan)
		}
	}
	for i := 0; i < 60; i++ {
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
			for i := 0; i < 15; i++ {
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

// limitOverExchange reports whether some Limit line is immediately
// followed by an Exchange line one level deeper.
func limitOverExchange(plan string) bool {
	lines := strings.Split(plan, "\n")
	for i := 0; i+1 < len(lines); i++ {
		indent := len(lines[i]) - len(strings.TrimLeft(lines[i], " "))
		if strings.HasPrefix(strings.TrimSpace(lines[i]), "Limit") &&
			strings.HasPrefix(lines[i+1], strings.Repeat(" ", indent+2)+"Exchange") {
			return true
		}
	}
	return false
}

// TestExchangeCancelMidMorselStress fires cancels while workers are inside
// morsels: RunCtx returns promptly with a context-classified error and every
// worker exits.
func TestExchangeCancelMidMorselStress(t *testing.T) {
	testutil.CheckLeaks(t)
	e := oneTableEngine(t, itemDocs(20000), 0, WithBatchSize(64), WithParallelism(4))
	sql := `SELECT "rid", COUNT(*), ARRAY_AGG("f".VALUE) FROM ` + ridFlatT + ` GROUP BY "rid"`
	for i := 0; i < 30; i++ {
		delay := time.Duration(i%6) * 300 * time.Microsecond
		p, err := e.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		start := time.Now()
		_, err = p.RunCtx(ctx)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("iteration %d: error %v is not context.Canceled", i, err)
			}
			if elapsed > delay+100*time.Millisecond {
				t.Fatalf("iteration %d: cancel took %s (delay %s)", i, elapsed, delay)
			}
		}
	}
}

// TestExchangeAbandonedDrainStress: prepared queries closed before, during
// and after the first morsels arrive — Close must stop the pool and return
// every byte the window held to the accountant.
func TestExchangeAbandonedDrainStress(t *testing.T) {
	testutil.CheckLeaks(t)
	e := oneTableEngine(t, itemDocs(3000), 64, WithBatchSize(16), WithParallelism(4), WithMemLimit(1<<30))
	sql := `SELECT "rid", ANY_VALUE("id"), ARRAY_AGG("f".VALUE) FROM ` + ridFlatT + ` GROUP BY "rid"`
	for i := 0; i < 100; i++ {
		p, err := e.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < i%5; k++ {
			if _, err := p.iter.NextBatch(); err != nil {
				t.Fatal(err)
			}
		}
		p.iter.Close()
		p.iter.Close() // Close must be idempotent
		if peak, _, _ := p.ctx.acct.snapshot(); i%5 > 0 && peak == 0 {
			t.Fatalf("iteration %d: the window charged nothing", i)
		}
		p.ctx.acct.mu.Lock()
		used := p.ctx.acct.used
		p.ctx.acct.mu.Unlock()
		if used != 0 {
			t.Fatalf("iteration %d: %d bytes still charged after Close", i, used)
		}
	}
}

// TestProbeChainStress: a three-join probe chain fanned out over 64-row
// morsels with either build side, and a dimension-first chain whose left
// build's match pass fans out — once with a budget small enough that its
// matched rows spill — under LIMIT truncation, cancellation mid-probe and
// Close before, during and after the first morsels. The tables the workers
// read must outlive them: an exchange closes its sequential pipeline, which
// owns the builds, only once its workers have exited. Every accounted byte
// returns to the accountant without the end-of-query backstop, and no
// worker goroutine or spill file is left behind.
func TestProbeChainStress(t *testing.T) {
	testutil.CheckLeaks(t)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	charged := func(p *Prepared) int64 {
		p.ctx.acct.mu.Lock()
		defer p.ctx.acct.mu.Unlock()
		return p.ctx.acct.used
	}
	const dimFirst = `SELECT id, a, b FROM d1 INNER JOIN t ON d1k = k1 INNER JOIN d2 ON k2 = d2k`
	for _, c := range []struct {
		sql   string
		side  buildSide
		limit int64
		match string // the join line's match detail, when the match fans out
	}{
		{probeChain, buildRight, 1 << 30, ""},
		{probeChain, buildLeft, 1 << 30, ""},
		{dimFirst, buildAuto, 1 << 30, " match[workers=4 morsels=63]"},
		{dimFirst, buildAuto, 16 << 10, " match[workers=4 morsels=63]"},
	} {
		e := probeEngine(t, 4000, 64, nil, WithBatchSize(16), WithParallelism(4), WithMemLimit(c.limit))
		e.forceBuild = c.side
		_, ps, err := e.QueryAnalyze(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		matched, spilled := c.match == "", false
		ps.Walk(func(_ int, n *PlanStats) {
			matched = matched || strings.Contains(n.Detail, c.match)
			spilled = spilled || n.Spills > 0
		})
		if !matched || spilled != (c.limit < 1<<20) {
			t.Fatalf("%s limit=%d: match %v, spilled %v\n%s", c.sql, c.limit, matched, spilled, ps.Render())
		}
		for i := 0; i < 20; i++ {
			n := 1 + i*7
			res, err := e.Query(c.sql + fmt.Sprintf(" LIMIT %d", n))
			if err != nil || len(res.Rows) != n {
				t.Fatalf("%s side=%d LIMIT %d: %v rows, err %v", c.sql, c.side, n, res, err)
			}
		}
		for i := 0; i < 20; i++ {
			delay := time.Duration(i%5) * 200 * time.Microsecond
			p, err := e.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(delay)
				cancel()
			}()
			_, err = p.RunCtx(ctx)
			cancel()
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s side=%d iteration %d: error %v is not context.Canceled", c.sql, c.side, i, err)
			}
		}
		for i := 0; i < 30; i++ {
			p, err := e.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < i%5; k++ {
				if _, err := p.iter.NextBatch(); err != nil {
					t.Fatal(err)
				}
			}
			p.iter.Close()
			p.iter.Close()
			if used := charged(p); used != 0 {
				t.Fatalf("%s side=%d iteration %d: %d bytes still charged after Close", c.sql, c.side, i, used)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "*")); len(left) > 0 {
		t.Errorf("spill files left behind: %v", left)
	}
}
