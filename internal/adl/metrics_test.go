package adl

import (
	"strings"
	"testing"
	"time"

	"jsonpark/internal/core"
	"jsonpark/internal/engine"
)

// TestMetricsAccuracy pins the observability invariants on every ADL query:
// scans always report bytes, the analyzed plan's root row count equals the
// result row count with rows_in flowing consistently through the tree, and
// the operators' self times partition a window no larger than the measured
// execution time.
func TestMetricsAccuracy(t *testing.T) {
	sess, _ := testSetup(t)
	for _, q := range Queries() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			tres, err := core.Translate(sess, q.JSONiq, core.Options{Strategy: q.Strategy})
			if err != nil {
				t.Fatal(err)
			}
			res, plan, err := sess.Engine().QueryAnalyze(tres.SQL)
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.BytesScanned <= 0 {
				t.Errorf("BytesScanned = %d", res.Metrics.BytesScanned)
			}
			if res.Metrics.PartitionsTotal <= 0 {
				t.Errorf("PartitionsTotal = %d", res.Metrics.PartitionsTotal)
			}
			if plan == nil {
				t.Fatal("nil plan")
			}
			if plan.RowsOut != int64(len(res.Rows)) {
				t.Errorf("root rows_out=%d, result rows=%d", plan.RowsOut, len(res.Rows))
			}
			var selfSum time.Duration
			var planBytes int64
			plan.Walk(func(depth int, n *engine.PlanStats) {
				selfSum += n.SelfTime()
				planBytes += n.BytesScanned
				var childSum int64
				for _, c := range n.Children {
					childSum += c.RowsOut
				}
				if n.RowsIn != childSum {
					t.Errorf("%s: rows_in=%d, sum(children)=%d", n.Op, n.RowsIn, childSum)
				}
			})
			// µs truncation per operator only loses time, never invents it.
			if selfSum > res.Metrics.ExecTime+time.Millisecond {
				t.Errorf("sum(self)=%v exceeds ExecTime=%v", selfSum, res.Metrics.ExecTime)
			}
			if planBytes != res.Metrics.BytesScanned {
				t.Errorf("plan bytes=%d, metrics bytes=%d", planBytes, res.Metrics.BytesScanned)
			}
		})
	}
}

// TestExplainAnalyzeShowsTyping: EXPLAIN ANALYZE says where typing held. On
// generated q6 the projections computing the trijet kinematics run typed
// kernels and the re-aggregate converts their typed results to build its
// objects; every operator's typed=N fallback=M adds up to the query's
// storage[typed= fallback=] totals.
func TestExplainAnalyzeShowsTyping(t *testing.T) {
	sess, _ := testSetup(t)
	q, _ := ByID("q6")
	tres, err := core.Translate(sess, q.JSONiq, core.Options{Strategy: q.Strategy})
	if err != nil {
		t.Fatal(err)
	}
	res, plan, err := sess.Engine().QueryAnalyze(tres.SQL)
	if err != nil {
		t.Fatal(err)
	}
	var typed, fallback int64
	var typedProject, fallbackAgg bool
	plan.Walk(func(_ int, n *engine.PlanStats) {
		typed += n.ExprTyped
		fallback += n.ExprFallback
		typedProject = typedProject || n.Op == "Project" && n.ExprTyped > 0
		fallbackAgg = fallbackAgg || n.Op == "Aggregate" && n.ExprFallback > 0
	})
	if !typedProject || !fallbackAgg {
		t.Errorf("want a typed Project and an Aggregate converting typed results:\n%s", plan.Render())
	}
	if typed != res.Metrics.TypedCols || fallback != res.Metrics.FallbackCols || typed == 0 {
		t.Errorf("operators add up to typed=%d fallback=%d, query reports %d/%d", typed, fallback, res.Metrics.TypedCols, res.Metrics.FallbackCols)
	}
	if r := plan.Render(); !strings.Contains(r, " typed=") || !strings.Contains(r, "storage[typed=") {
		t.Errorf("render lacks the typed=/storage[] clauses:\n%s", r)
	}
}
