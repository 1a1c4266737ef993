package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// breakerQueries exercise every pipeline breaker: partitioned hash
// aggregation (with ARRAY_AGG concatenation, DISTINCT dedup, ANY_VALUE
// first-wins and WITHIN GROUP ordering — the order-sensitive merges), the
// parallel hash-join build, and the sort.
var breakerQueries = []string{
	// Grouped aggregation, mergeable accumulators only.
	`SELECT grp, COUNT(*), MIN(val), MAX(val) FROM events GROUP BY grp`,
	`SELECT grp, COUNT(DISTINCT val), ANY_VALUE(id) FROM events GROUP BY grp`,
	`SELECT "grp", ARRAY_AGG("id") FROM "events" GROUP BY "grp"`,
	`SELECT "grp", ARRAY_AGG(DISTINCT "val") FROM "events" GROUP BY "grp"`,
	`SELECT "grp", ARRAY_AGG("id") WITHIN GROUP (ORDER BY "val" DESC, "id") FROM "events" GROUP BY "grp"`,
	// Global aggregation.
	`SELECT COUNT(*), MIN(val), MAX(id) FROM events`,
	`SELECT COUNT(*) FROM events WHERE val > 1000`, // empty after filter
	// Aggregation over a flatten chain (the paper's re-aggregation shape).
	`SELECT "id", ARRAY_AGG("f".VALUE), ANY_VALUE("grp") FROM (SELECT * FROM "events"), LATERAL FLATTEN(INPUT => "items") AS "f" GROUP BY "id"`,
	// Non-mergeable aggregates: must fall back and still agree byte-for-byte.
	`SELECT grp, SUM(val), AVG(val) FROM events GROUP BY grp`,
	// Joins: equi-join (parallel build) and LEFT OUTER.
	`SELECT COUNT(*) FROM (SELECT "grp" AS "g" FROM "events" WHERE "id" < 100) INNER JOIN (SELECT * FROM "events") ON "g" = "grp"`,
	`SELECT "id", "oid" FROM (SELECT "id", "grp" FROM "events" WHERE "id" < 25) LEFT OUTER JOIN (SELECT "id" AS "oid", "grp" AS "g2" FROM "events" WHERE "val" > 12) ON "grp" = "g2"`,
	// Sorts: duplicate keys probe the stable sort.
	`SELECT id, grp, val FROM events ORDER BY grp, val DESC`,
	`SELECT id FROM events ORDER BY val DESC LIMIT 31`,
}

// TestParallelBreakerParity is the core regression of the parallel pipeline
// breakers: parallelism {1,2,4} × batch size {1,1024}, planck enabled, every
// configuration byte-identical.
func TestParallelBreakerParity(t *testing.T) {
	configs := []struct {
		name string
		opts []Option
	}{
		{"par1-bs1", []Option{WithParallelism(1), WithBatchSize(1), planChecked()}},
		{"par1-bs1024", []Option{WithParallelism(1), WithBatchSize(1024), planChecked()}},
		{"par2-bs1024", []Option{WithParallelism(2), WithBatchSize(1024), planChecked()}},
		{"par4-bs1", []Option{WithParallelism(4), WithBatchSize(1), planChecked()}},
		{"par4-bs1024", []Option{WithParallelism(4), WithBatchSize(1024), planChecked()}},
	}
	engines := make([]*Engine, len(configs))
	for i, c := range configs {
		engines[i] = multiPartEngine(t, c.opts...)
	}
	for _, sql := range breakerQueries {
		var want string
		for i, c := range configs {
			res, err := engines[i].Query(sql)
			if err != nil {
				t.Fatalf("%s [%s]: %v", sql, c.name, err)
			}
			got := renderRows(res)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: config %s diverges from %s\ngot:\n%s\nwant:\n%s",
					sql, c.name, configs[0].name, got, want)
			}
		}
	}
}

// hashAgg runs sql analyzed and returns the result with its (one) hash
// aggregate's annotated node and raw record.
func hashAgg(t *testing.T, e *Engine, sql string) (*Result, *PlanStats, *OpStats) {
	t.Helper()
	p, err := e.PrepareOpts(sql, PrepareOptions{Analyze: true})
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	var agg *PlanStats
	p.PlanStats().Walk(func(_ int, n *PlanStats) {
		if n.Op == "Aggregate" && strings.HasPrefix(n.Detail, "hash") {
			agg = n
		}
	})
	for n, st := range p.ctx.prog.byNode {
		if x, ok := n.(*AggregateNode); ok && !x.Stream && agg != nil {
			return res, agg, st
		}
	}
	t.Fatalf("%s: no hash aggregate in the plan", sql)
	return nil, nil, nil
}

// TestParallelAggExplainAnalyze pins the observability contract: an analyzed
// aggregation that fanned out renders as a hash Aggregate with its per-phase
// stats, and the stats are internally consistent.
func TestParallelAggExplainAnalyze(t *testing.T) {
	e := multiPartEngine(t, WithParallelism(4), planChecked())
	res, agg, st := hashAgg(t, e, `SELECT grp, COUNT(*), MIN(val) FROM events GROUP BY grp`)
	if len(res.Rows) != 7 {
		t.Fatalf("expected 7 groups, got %d", len(res.Rows))
	}
	if res.Metrics.ParallelBreakers != 1 {
		t.Fatalf("ParallelBreakers = %d, want 1", res.Metrics.ParallelBreakers)
	}
	if st.Sequential != "" || agg.Detail != "hash groups=1 aggs=2" {
		t.Fatalf("aggregate did not fan out: %q (sequential %q)", agg.Detail, st.Sequential)
	}
	if agg.Pipelines < 1 {
		t.Fatalf("phase stats not recorded: %+v", agg)
	}
	if agg.MergedGroups != 7 {
		t.Fatalf("merged groups = %d, want 7", agg.MergedGroups)
	}
	if agg.LocalRows != 500 {
		t.Fatalf("local rows = %d, want 500", agg.LocalRows)
	}
	if agg.LocalGroups < agg.MergedGroups {
		t.Fatalf("local groups %d < merged groups %d", agg.LocalGroups, agg.MergedGroups)
	}
	if agg.MaxWorkerRows < 1 || agg.MaxWorkerRows > agg.LocalRows {
		t.Fatalf("implausible max worker rows %d (local %d)", agg.MaxWorkerRows, agg.LocalRows)
	}
	if agg.RowsIn != agg.Children[0].RowsOut {
		t.Fatalf("rows_in %d does not match child rows_out %d", agg.RowsIn, agg.Children[0].RowsOut)
	}
}

// TestOrderSensitiveAggStaysSequential pins the fallback rule: SUM and AVG
// fold floats in input order (addition is not associative), and stateful
// SEQ8 arguments observe evaluation order, so those aggregates stay
// sequential even at high parallelism. EXPLAIN prints the plan-time verdict
// and EXPLAIN ANALYZE the run-time reason in its place, once.
func TestOrderSensitiveAggStaysSequential(t *testing.T) {
	e := multiPartEngine(t, WithParallelism(8), planChecked())
	for _, c := range []struct{ sql, why string }{
		{`SELECT grp, SUM(val) FROM events GROUP BY grp`, "not mergeable: SUM"},
		{`SELECT grp, AVG(val) FROM events GROUP BY grp`, "not mergeable: AVG"},
		{`SELECT grp, MIN(SEQ8()) FROM events GROUP BY grp`, "row id in aggregate"},
		{`SELECT "r", COUNT(*) FROM (SELECT SEQ8() % 3 AS "r" FROM events) GROUP BY "r"`, "row id in input"},
	} {
		plan, err := e.Explain(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "Aggregate hash groups=1 aggs=1 sequential: "+c.why+" exprs[") {
			t.Errorf("%s: EXPLAIN does not say why:\n%s", c.sql, plan)
		}
		_, agg, st := hashAgg(t, e, c.sql)
		if agg.Pipelines > 0 || st.Sequential != c.why {
			t.Errorf("%s: pipelines=%d sequential %q, want %q", c.sql, agg.Pipelines, st.Sequential, c.why)
		}
		if agg.Detail != "hash groups=1 aggs=1 sequential: "+c.why {
			t.Errorf("%s: detail %q does not say why exactly once", c.sql, agg.Detail)
		}
	}
}

// TestParallelJoinAndSortAnalyze: the join build and the sort are sequential
// at every parallelism — a join builds one hash table however large its build
// side — so neither records phase stats nor counts as a parallel breaker.
func TestParallelJoinAndSortAnalyze(t *testing.T) {
	e := multiPartEngine(t, WithParallelism(4), planChecked())
	for _, c := range []struct {
		build string
		rows  int64
	}{
		{`SELECT * FROM "events"`, 500},
		{`SELECT * FROM "events" WHERE "id" < 100`, 100},
	} {
		res, ps, err := e.QueryAnalyze(`SELECT COUNT(*) FROM (SELECT "grp" AS "g" FROM "events") INNER JOIN (` + c.build + `) ON "g" = "grp"`)
		if err != nil {
			t.Fatal(err)
		}
		var join *PlanStats
		ps.Walk(func(_ int, n *PlanStats) {
			if strings.Contains(n.Op, "Join") {
				join = n
			}
		})
		if join == nil {
			t.Fatal("no join in plan")
		}
		if join.Pipelines != 0 || join.LocalRows != 0 || join.MergedGroups != 0 {
			t.Errorf("%d-row build: pipelines=%d local_rows=%d merged=%d, want no phase stats", c.rows, join.Pipelines, join.LocalRows, join.MergedGroups)
		}
		if res.Metrics.ParallelBreakers != 0 {
			t.Errorf("%d-row build: ParallelBreakers = %d, want 0", c.rows, res.Metrics.ParallelBreakers)
		}
		if strings.Contains(ps.Render(), "par[") {
			t.Errorf("%d-row build: rendered phase stats:\n%s", c.rows, ps.Render())
		}
	}

	res, ps, err := e.QueryAnalyze(`SELECT id FROM events ORDER BY val DESC, id`)
	if err != nil {
		t.Fatal(err)
	}
	var srt *PlanStats
	ps.Walk(func(_ int, n *PlanStats) {
		if n.Op == "Sort" {
			srt = n
		}
	})
	if srt == nil {
		t.Fatal("no sort in plan")
	}
	if srt.Detail != "keys=2" || srt.Pipelines != 0 || res.Metrics.ParallelBreakers != 0 {
		t.Fatalf("sort %q pipelines=%d, ParallelBreakers = %d, want a sequential sort counting 0", srt.Detail, srt.Pipelines, res.Metrics.ParallelBreakers)
	}
}

// TestParallelAggSinglePartitionFallsBack: a table with one micro-partition
// has nothing to split; the aggregate runs sequentially and says why.
func TestParallelAggSinglePartitionFallsBack(t *testing.T) {
	e := New(WithParallelism(4), planChecked())
	tab, err := e.Catalog().CreateTable("one", []string{"k", "v"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		row := []variant.Value{variant.Int(int64(i % 3)), variant.Int(int64(i))}
		if err := tab.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	const sql = `SELECT k, COUNT(*) FROM one GROUP BY k`
	// The plan admits fanning out, so EXPLAIN gives no verdict; the run says
	// why it did not.
	plan, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Aggregate hash groups=1 aggs=1 exprs[") {
		t.Errorf("EXPLAIN gives an eligible aggregate a verdict:\n%s", plan)
	}
	res, agg, st := hashAgg(t, e, sql)
	if agg.Pipelines > 0 || st.Sequential != "one partition" || res.Metrics.ParallelBreakers != 0 {
		t.Errorf("single-partition table: pipelines=%d sequential %q breakers=%d, want 0/%q/0",
			agg.Pipelines, st.Sequential, res.Metrics.ParallelBreakers, "one partition")
	}
	if agg.Detail != "hash groups=1 aggs=1 sequential: one partition" {
		t.Errorf("EXPLAIN ANALYZE detail %q", agg.Detail)
	}
}

// TestWorkerChainPollsCancellation: a worker chain runs in the same envelope
// as the driver's operators, so a cancelled query stops it at its first
// batch instead of letting a span fold absorb the whole source.
func TestWorkerChainPollsCancellation(t *testing.T) {
	ctx := cancelledExecCtx()
	src := &staticBatches{batches: []*vector.Batch{{Cols: [][]variant.Value{{variant.Int(1), variant.Int(2)}}}}}
	chain := instantiateChain(ctx, &segmentPlan{scanSt: &OpStats{}, batch: 4}, src, nil)
	defer chain.Close()
	if b, err := chain.NextBatch(); !errors.Is(err, context.Canceled) {
		t.Fatalf("first NextBatch = %v, %v; want context.Canceled", b, err)
	}
}
