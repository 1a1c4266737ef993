package engine

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"jsonpark/internal/variant"
)

// A query paused mid-flight via the exec batch hook must be visible in
// ProgressSnapshot with non-zero per-operator row counts, and must vanish
// once it completes.
func TestProgressSnapshotMidFlight(t *testing.T) {
	e := New(WithBatchSize(1), WithParallelism(1))
	seedProgressTable(t, e)

	paused := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.SetExecBatchHook(func() {
		once.Do(func() {
			close(paused)
			<-release
		})
	})

	type outcome struct {
		rows int
		err  error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.Query("SELECT o_id FROM progress_orders WHERE o_id > 0")
		var n int
		if res != nil {
			n = len(res.Rows)
		}
		done <- outcome{rows: n, err: err}
	}()

	<-paused
	snaps := e.ProgressSnapshot()
	if len(snaps) != 1 {
		t.Fatalf("want 1 in-flight query, got %d", len(snaps))
	}
	qp := snaps[0]
	if !strings.Contains(qp.SQL, "progress_orders") {
		t.Errorf("snapshot SQL = %q, want the running statement", qp.SQL)
	}
	if len(qp.Operators) == 0 {
		t.Fatal("snapshot has no operators")
	}
	var sawRows bool
	for _, op := range qp.Operators {
		if op.Rows > 0 && op.Batches > 0 {
			sawRows = true
		}
	}
	if !sawRows {
		t.Errorf("no operator shows progress mid-flight: %+v", qp.Operators)
	}

	close(release)
	out := <-done
	if out.err != nil {
		t.Fatalf("query failed: %v", out.err)
	}
	if out.rows != 8 {
		t.Fatalf("rows = %d, want 8", out.rows)
	}
	if after := e.ProgressSnapshot(); len(after) != 0 {
		t.Errorf("finished query still listed: %+v", after)
	}
}

// Successive snapshots of a running query must only grow.
func TestProgressCountersMonotonic(t *testing.T) {
	e := New(WithBatchSize(1), WithParallelism(1))
	seedProgressTable(t, e)

	step := make(chan struct{})
	resume := make(chan struct{})
	hits := 0
	e.SetExecBatchHook(func() {
		hits++
		if hits <= 2 {
			step <- struct{}{}
			<-resume
		}
	})
	done := make(chan error, 1)
	go func() {
		_, err := e.Query("SELECT o_id FROM progress_orders")
		done <- err
	}()

	rowsAt := func() int64 {
		snaps := e.ProgressSnapshot()
		if len(snaps) != 1 {
			t.Fatalf("want 1 in-flight query, got %d", len(snaps))
		}
		var total int64
		for _, op := range snaps[0].Operators {
			total += op.Rows
		}
		return total
	}

	<-step
	first := rowsAt()
	resume <- struct{}{}
	<-step
	second := rowsAt()
	resume <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if first <= 0 || second <= first {
		t.Errorf("counters not monotonic: first=%d second=%d", first, second)
	}
}

// TestLiveProgressMatchesAnalyze: live progress and EXPLAIN ANALYZE read one
// record per node, so at the last root batch every operator's live rows and
// batches equal its PlanStats — inside a fanned-out aggregate and exchange
// too, whose worker chains add into the same records — and the rows equal the
// sequential run's.
func TestLiveProgressMatchesAnalyze(t *testing.T) {
	for _, c := range []struct {
		name   string
		engine func(par int) *Engine
		sql    string
	}{
		{"fanned-agg", func(par int) *Engine { return multiPartEngine(t, WithParallelism(par)) },
			`SELECT "grp", COUNT(*) FROM "events" GROUP BY "grp"`},
		{"exchange", func(par int) *Engine { return oneTableEngine(t, itemDocs(4000), 0, WithParallelism(par)) },
			`SELECT "rid", COUNT(*) FROM ` + ridFlatT + ` GROUP BY "rid"`},
	} {
		var seqRows []int64
		for _, par := range []int{1, 2, 4} {
			e := c.engine(par)
			var live []OpProgress
			e.SetExecBatchHook(func() {
				snaps := e.ProgressSnapshot()
				if len(snaps) != 1 {
					t.Fatalf("%s par=%d: want 1 in-flight query, got %d", c.name, par, len(snaps))
				}
				live = snaps[0].Operators
			})
			p, err := e.PrepareOpts(c.sql, PrepareOptions{Analyze: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(); err != nil {
				t.Fatalf("%s par=%d: %v", c.name, par, err)
			}
			var want []*PlanStats
			fanned := false
			p.PlanStats().Walk(func(_ int, n *PlanStats) {
				want = append(want, n)
				fanned = fanned || n.Pipelines > 0 || n.Workers > 0
			})
			if fanned != (par > 1) {
				t.Fatalf("%s par=%d: fanned out = %v\n%s", c.name, par, fanned, p.PlanStats().Render())
			}
			if len(live) != len(want) {
				t.Fatalf("%s par=%d: %d live operators, %d in PlanStats", c.name, par, len(live), len(want))
			}
			var rows []int64
			for i, op := range live {
				w := want[i]
				if op.Op != w.Op || op.Rows != w.RowsOut || op.Batches != w.Batches {
					t.Errorf("%s par=%d: live %s rows=%d batches=%d, analyzed %s rows=%d batches=%d",
						c.name, par, op.Op, op.Rows, op.Batches, w.Op, w.RowsOut, w.Batches)
				}
				rows = append(rows, op.Rows)
			}
			if par == 1 {
				seqRows = rows
			} else if !slices.Equal(rows, seqRows) {
				t.Errorf("%s par=%d: live rows %v, sequential %v\n%s", c.name, par, rows, seqRows, p.PlanStats().Render())
			}
		}
	}
}

func seedProgressTable(t *testing.T, e *Engine) {
	t.Helper()
	tab, err := e.Catalog().CreateTable("progress_orders", []string{"o_id"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if err := tab.Append([]variant.Value{variant.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}
