package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// aggKinds physicalizes one query and lists its aggregates root first:
// "stream:<key>" or "hash".
func aggKinds(t *testing.T, e *Engine, sql string) []string {
	t.Helper()
	plan, _ := physicalize(buildPlan(t, e, sql), false)
	var out []string
	forEachNode(plan, func(n Node) {
		if a, ok := n.(*AggregateNode); ok {
			if a.Stream {
				out = append(out, "stream:"+sqlast.RenderExpr(a.GroupBy[0]))
			} else {
				out = append(out, "hash")
			}
		}
	})
	if err := checkStreamAggs(plan); err != nil {
		t.Errorf("%s: planck disagrees with physicalize: %v", sql, err)
	}
	return out
}

// rid is the row-ID injection every nested-query translation starts with.
const ridEvents = `(SELECT *, SEQ8() AS "rid" FROM "events")`

// TestOrderPropertyDerivation has one case per derivation rule, and the
// negatives that matter: everything that may reorder or recompute a column
// must erase the property.
func TestOrderPropertyDerivation(t *testing.T) {
	e := multiPartEngine(t)
	flat := `(SELECT * FROM ` + ridEvents + `, LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f")`
	cases := []struct {
		name, sql string
		want      []string
	}{
		{"seq8", `SELECT "rid", COUNT(*) FROM ` + ridEvents + ` GROUP BY "rid"`, []string{`stream:"rid"`}},
		{"seq4", `SELECT "r", COUNT(*) FROM (SELECT SEQ4() AS "r", "id" FROM "events") GROUP BY "r"`, []string{`stream:"r"`}},
		{"seq plus literal", `SELECT "r", COUNT(*) FROM (SELECT SEQ8() + 1 AS "r", "id" FROM "events") GROUP BY "r"`, []string{`stream:"r"`}},
		{"literal plus seq", `SELECT "r", COUNT(*) FROM (SELECT 10 + SEQ8() AS "r", "id" FROM "events") GROUP BY "r"`, []string{`stream:"r"`}},
		{"pass-through rename", `SELECT "r2", COUNT(*) FROM (SELECT "rid" AS "r2", "val" * 2 AS "v" FROM ` + ridEvents + `) GROUP BY "r2"`, []string{`stream:"r2"`}},
		{"filter keeps", `SELECT "rid", COUNT(*) FROM ` + ridEvents + ` WHERE "val" > 3 GROUP BY "rid"`, []string{`stream:"rid"`}},
		{"limit keeps", `SELECT "rid", COUNT(*) FROM (SELECT * FROM ` + ridEvents + ` LIMIT 40) GROUP BY "rid"`, []string{`stream:"rid"`}},
		{"flatten keeps input columns", `SELECT "rid", ARRAY_AGG("f".VALUE) FROM ` + flat + ` GROUP BY "rid"`, []string{`stream:"rid"`}},
		{"any_value carries an outer row id", `SELECT "rid", COUNT(*) FROM (SELECT "r2", ANY_VALUE("rid") AS "rid" FROM (SELECT *, SEQ8() AS "r2" FROM ` + flat + `) GROUP BY "r2") GROUP BY "rid"`,
			[]string{`stream:"rid"`, `stream:"r2"`}},
		{"min and max carry it too", `SELECT "lo", COUNT(*) FROM (SELECT "hi", MIN("lo") AS "lo" FROM (SELECT "r2", MAX("rid") AS "hi", MIN("rid") AS "lo" FROM (SELECT *, SEQ8() AS "r2" FROM ` + flat + `) GROUP BY "r2") GROUP BY "hi") GROUP BY "lo"`,
			[]string{`stream:"lo"`, `stream:"hi"`, `stream:"r2"`}},

		{"scan column", `SELECT "id", COUNT(*) FROM "events" GROUP BY "id"`, []string{"hash"}},
		{"sort erases", `SELECT "rid", COUNT(*) FROM (SELECT * FROM ` + ridEvents + ` ORDER BY "val") GROUP BY "rid"`, []string{"hash"}},
		{"join erases", `SELECT "rid", COUNT(*) FROM ` + ridEvents + ` INNER JOIN (SELECT "id" AS "oid" FROM "events") ON "id" = "oid" GROUP BY "rid"`, []string{"hash"}},
		{"union erases", `SELECT "rid", COUNT(*) FROM ((SELECT SEQ8() AS "rid" FROM "events") UNION ALL (SELECT SEQ8() AS "rid" FROM "events")) GROUP BY "rid"`, []string{"hash"}},
		{"negated seq", `SELECT "r", COUNT(*) FROM (SELECT SEQ8() * -1 AS "r", "id" FROM "events") GROUP BY "r"`, []string{"hash"}},
		{"seq modulo", `SELECT "r", COUNT(*) FROM (SELECT SEQ8() % 2 AS "r", "id" FROM "events") GROUP BY "r"`, []string{"hash"}},
		{"seq plus float", `SELECT "r", COUNT(*) FROM (SELECT SEQ8() + 0.5 AS "r", "id" FROM "events") GROUP BY "r"`, []string{"hash"}},
		{"seq in a case arm", `SELECT "r", COUNT(*) FROM (SELECT CASE WHEN "val" > 3 THEN SEQ8() ELSE 0 END AS "r", "id" FROM "events") GROUP BY "r"`, []string{"hash"}},
		{"computed key", `SELECT "rid" + 0, COUNT(*) FROM ` + ridEvents + ` GROUP BY "rid" + 0`, []string{"hash"}},
		{"computed from an ordered column", `SELECT "r", COUNT(*) FROM (SELECT "rid" * 2 AS "r" FROM ` + ridEvents + `) GROUP BY "r"`, []string{"hash"}},
		{"two group keys", `SELECT "rid", "grp", COUNT(*) FROM ` + ridEvents + ` GROUP BY "rid", "grp"`, []string{"hash"}},
		{"flatten value and index", `SELECT "f".INDEX, COUNT(*) FROM ` + flat + ` GROUP BY "f".INDEX`, []string{"hash"}},
		{"sum of an ordered column", `SELECT "s", COUNT(*) FROM (SELECT "r2", SUM("rid") AS "s" FROM (SELECT *, SEQ8() AS "r2" FROM ` + flat + `) GROUP BY "r2") GROUP BY "s"`,
			[]string{"hash", `stream:"r2"`}},
		{"any_value of an unordered column", `SELECT "v", COUNT(*) FROM (SELECT "r2", ANY_VALUE("id") AS "v" FROM (SELECT *, SEQ8() AS "r2" FROM ` + flat + `) GROUP BY "r2") GROUP BY "v"`,
			[]string{"hash", `stream:"r2"`}},
		{"hash aggregate output", `SELECT "r", COUNT(*) FROM (SELECT "grp", ANY_VALUE("rid") AS "r" FROM ` + ridEvents + ` GROUP BY "grp") GROUP BY "r"`, []string{"hash", "hash"}},
	}
	for _, c := range cases {
		if got := aggKinds(t, e, c.sql); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: aggregates %v, want %v\n%s", c.name, got, c.want, c.sql)
		}
	}
}

// markStream marks every aggregate of the plan Stream, justified or not.
func markStream(n Node) {
	forEachNode(n, func(x Node) {
		if a, ok := x.(*AggregateNode); ok {
			a.Stream = true
		}
	})
}

// TestPlanCheckRejectsUnclusteredStream: planck's top-down trace must refuse a
// Stream mark the plan does not justify.
func TestPlanCheckRejectsUnclusteredStream(t *testing.T) {
	e := multiPartEngine(t)
	plan := buildPlan(t, e, `SELECT "id", COUNT(*) FROM "events" GROUP BY "id"`)
	markStream(plan)
	err := checkPlan(plan)
	if err == nil || !strings.Contains(err.Error(), "marked stream") {
		t.Fatalf("checkPlan accepted a stream aggregate over a scan column: %v", err)
	}
}

// TestStreamAggregateRejectsRegressingKey: the operator itself fails the
// query, loudly, if its input is not clustered after all.
func TestStreamAggregateRejectsRegressingKey(t *testing.T) {
	e := multiPartEngine(t, WithParallelism(1))
	// "grp" cycles 0..6, so it regresses on the eighth row; force the mark.
	plan := buildPlan(t, e, `SELECT "grp", COUNT(*) FROM "events" GROUP BY "grp"`)
	markStream(plan)
	ctx := &execContext{metrics: &Metrics{}, batchSize: 64, parallelism: 1, acct: &memAccountant{}}
	it, err := prepare(plan, ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	_, err = drainRows(it)
	if err == nil || !strings.Contains(err.Error(), "internal error: streaming aggregate key") {
		t.Fatalf("regressing key: got %v", err)
	}
}

// streamDiffQueries cover the streaming aggregate's edges: groups that
// straddle input batches (FLATTEN fans each row out, so at small batch sizes
// a group spans several), single-row groups, empty input, every row filtered
// out, LIMIT above the aggregate, ordered and DISTINCT ARRAY_AGG, the NULL
// arguments the flag strategy manufactures, every accumulator's reset, and
// stacked streaming aggregates.
func streamDiffQueries() []string {
	flat := `(SELECT * FROM ` + ridEvents + `, LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f")`
	return []string{
		`SELECT "rid", COUNT(*), ANY_VALUE("id"), ARRAY_AGG("f".VALUE) FROM ` + flat + ` GROUP BY "rid"`,
		`SELECT "rid", ANY_VALUE("val") FROM ` + ridEvents + ` GROUP BY "rid"`,
		`SELECT "rid", COUNT(*) FROM ` + ridEvents + ` WHERE "id" < 0 GROUP BY "rid"`,
		`SELECT "rid", COUNT(*), SUM("f".VALUE) FROM ` + flat + ` WHERE "f".VALUE > 100000000 GROUP BY "rid"`,
		`SELECT "rid", COUNT(*), ARRAY_AGG("f".VALUE) FROM ` + flat + ` GROUP BY "rid" LIMIT 23`,
		`SELECT "rid", ARRAY_AGG("f".VALUE) WITHIN GROUP (ORDER BY "f".VALUE % 5 DESC, "f".INDEX) FROM ` + flat + ` GROUP BY "rid"`,
		`SELECT "rid", ARRAY_AGG(DISTINCT "f".VALUE % 3), COUNT(DISTINCT "f".VALUE % 2) FROM ` + flat + ` GROUP BY "rid"`,
		`SELECT "rid", ARRAY_AGG(CASE WHEN "f".VALUE % 2 = 0 THEN "f".VALUE END) WITHIN GROUP (ORDER BY "f".INDEX DESC), COUNT_IF("f".VALUE % 2 = 0) FROM ` + flat + ` GROUP BY "rid"`,
		`SELECT "rid", SUM("f".VALUE), AVG("f".VALUE), MIN("f".VALUE), MAX("f".VALUE), COUNT("f".VALUE), BOOLAND_AGG("f".VALUE > 10), BOOLOR_AGG("f".VALUE > 900) FROM ` + flat + ` GROUP BY "rid"`,
		`SELECT "rid", COUNT(*), ARRAY_AGG("n") FROM (SELECT "r2", ANY_VALUE("rid") AS "rid", COUNT_IF("g".VALUE > "f".VALUE) AS "n" FROM (SELECT * FROM (SELECT *, SEQ8() AS "r2" FROM ` + flat + `), LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "g") GROUP BY "r2") GROUP BY "rid"`,
		`SELECT "grp", COUNT(*), ARRAY_AGG("n") FROM (SELECT "rid", ANY_VALUE("grp") AS "grp", COUNT(*) AS "n" FROM ` + flat + ` GROUP BY "rid") GROUP BY "grp"`,
	}
}

// TestStreamVsHashAggregate is the streaming aggregate's differential test:
// the hash aggregate (forced by the unexported hook) is the oracle, and every
// batch size × parallelism must match it byte for byte with recycled storage
// poisoned.
func TestStreamVsHashAggregate(t *testing.T) {
	queries := streamDiffQueries()
	oracle := multiPartEngine(t, WithBatchSize(1024), WithParallelism(1))
	oracle.forceHashAgg = true
	want := make([]string, len(queries))
	for i, sql := range queries {
		if kinds := aggKinds(t, oracle, sql); !strings.HasPrefix(kinds[len(kinds)-1], "stream:") {
			t.Fatalf("%s: innermost aggregate does not stream: %v", sql, kinds)
		}
		if plan, err := oracle.Explain(sql); err != nil || strings.Contains(plan, "Aggregate stream") {
			t.Fatalf("%s: the hook left a streaming aggregate in the oracle's plan (%v):\n%s", sql, err, plan)
		}
		want[i] = renderRows(mustQuery(t, oracle, sql))
	}
	if want[0] == "" || want[2] != "" || want[3] != "" {
		t.Fatalf("fixture drifted: want rows from query 0 and none from the empty-input queries 2 and 3")
	}
	poisonRecycling(t)
	for _, bs := range []int{1, 7, 1024} {
		for _, par := range []int{1, 4} {
			e := multiPartEngine(t, WithBatchSize(bs), WithParallelism(par), planChecked())
			for i, sql := range queries {
				res, err := e.Query(sql)
				if err != nil {
					t.Fatalf("%s [bs=%d par=%d]: %v", sql, bs, par, err)
				}
				if got := renderRows(res); got != want[i] {
					t.Errorf("%s: stream bs=%d par=%d diverges from hash\ngot:\n%s\nwant:\n%s", sql, bs, par, clipDiff(got), clipDiff(want[i]))
				}
			}
		}
	}
}

// TestStreamAggregateErrorMidGroup: an accumulator error raised inside a group
// surfaces unchanged, at every batch size.
func TestStreamAggregateErrorMidGroup(t *testing.T) {
	sql := `SELECT "rid", SUM(CASE WHEN "id" = 250 AND "f".INDEX = 1 THEN 'x' ELSE "f".VALUE END) FROM (SELECT * FROM ` + ridEvents + `, LATERAL FLATTEN(INPUT => "items") AS "f") GROUP BY "rid"`
	oracle := multiPartEngine(t, WithParallelism(1))
	oracle.forceHashAgg = true
	_, want := oracle.Query(sql)
	if want == nil || !strings.Contains(want.Error(), "SUM over non-numeric") {
		t.Fatalf("oracle error: %v", want)
	}
	for _, bs := range []int{1, 7, 1024} {
		e := multiPartEngine(t, WithBatchSize(bs), WithParallelism(1))
		if _, err := e.Query(sql); err == nil || err.Error() != want.Error() {
			t.Errorf("bs=%d: got %v, want %v", bs, err, want)
		}
	}
}

// TestStreamVsHashAggregateProperty draws random clustered inputs — group
// sizes 0..6 with NULLs, duplicates and mixed int/float values — and random
// aggregate lists, and compares stream against hash.
func TestStreamVsHashAggregateProperty(t *testing.T) {
	aggs := []string{
		`COUNT(*)`, `COUNT("f".VALUE)`, `COUNT(DISTINCT "f".VALUE)`, `COUNT_IF("f".VALUE > 2)`,
		`SUM("f".VALUE)`, `AVG("f".VALUE)`, `MIN("f".VALUE)`, `MAX("f".VALUE)`, `ANY_VALUE("f".VALUE)`,
		`ARRAY_AGG("f".VALUE)`, `ARRAY_AGG(DISTINCT "f".VALUE)`,
		`ARRAY_AGG("f".VALUE) WITHIN GROUP (ORDER BY "f".VALUE DESC)`,
		`ARRAY_AGG("f".INDEX) WITHIN GROUP (ORDER BY "f".VALUE, "f".INDEX DESC)`,
		`BOOLAND_AGG("f".VALUE > 1)`, `BOOLOR_AGG("f".VALUE > 4)`,
	}
	poisonRecycling(t)
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		var docs []string
		for i, n := 0, r.Intn(120); i < n; i++ {
			var items []string
			for k, m := 0, r.Intn(7); k < m; k++ {
				switch r.Intn(5) {
				case 0:
					items = append(items, "null")
				case 1:
					items = append(items, fmt.Sprintf("%d.5", r.Intn(6)))
				default:
					items = append(items, fmt.Sprint(r.Intn(6)))
				}
			}
			docs = append(docs, fmt.Sprintf(`{"id": %d, "items": [%s]}`, i, strings.Join(items, ",")))
		}
		r.Shuffle(len(aggs), func(i, j int) { aggs[i], aggs[j] = aggs[j], aggs[i] })
		sql := `SELECT "rid", ` + strings.Join(aggs[:1+r.Intn(5)], ", ") +
			` FROM (SELECT * FROM (SELECT *, SEQ8() AS "rid" FROM "t"), LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f") GROUP BY "rid"`
		load := func(opts ...Option) *Engine {
			e := New(opts...)
			tab, err := e.Catalog().CreateTable("t", []string{"id", "items"})
			if err != nil {
				t.Fatal(err)
			}
			tab.SetTargetPartitionBytes(512)
			for _, d := range docs {
				if err := tab.AppendObject(variant.MustParseJSON(d)); err != nil {
					t.Fatal(err)
				}
			}
			return e
		}
		oracle := load(WithParallelism(1))
		oracle.forceHashAgg = true
		want := renderRows(mustQuery(t, oracle, sql))
		for _, bs := range []int{1, 7, 1024} {
			for _, par := range []int{1, 4} {
				if got := renderRows(mustQuery(t, load(WithBatchSize(bs), WithParallelism(par)), sql)); got != want {
					t.Errorf("seed %d bs=%d par=%d: stream diverges from hash on %s\ngot:\n%s\nwant:\n%s", seed, bs, par, sql, clipDiff(got), clipDiff(want))
				}
			}
		}
	}
}

// TestExplainNamesAggregateAlgorithm: EXPLAIN and EXPLAIN ANALYZE say which
// aggregate runs, and the physicalize span counts the streaming ones.
func TestExplainNamesAggregateAlgorithm(t *testing.T) {
	e := multiPartEngine(t, WithParallelism(1))
	sql := `SELECT "grp", COUNT(*) FROM (SELECT "rid", ANY_VALUE("grp") AS "grp" FROM ` + ridEvents + ` GROUP BY "rid") GROUP BY "grp"`
	plan, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	_, ps, err := e.QueryAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	for name, text := range map[string]string{"EXPLAIN": plan, "EXPLAIN ANALYZE": ps.Render()} {
		for _, want := range []string{`Aggregate stream key="rid" aggs=1`, `Aggregate hash groups=1 aggs=1`} {
			if !strings.Contains(text, want) {
				t.Errorf("%s lacks %q:\n%s", name, want, text)
			}
		}
	}
}

// clusteredBatches builds groups × perGroup rows (rid, id, v) clustered on
// rid, in dense batches of vector.DefaultBatchSize rows.
func clusteredBatches(groups, perGroup int) []*vector.Batch {
	var out []*vector.Batch
	var cols [][]variant.Value
	for g := 0; g < groups; g++ {
		for k := 0; k < perGroup; k++ {
			if cols == nil || len(cols[0]) == vector.DefaultBatchSize {
				cols = make([][]variant.Value, 3)
				out = append(out, &vector.Batch{Cols: cols})
			}
			cols[0] = append(cols[0], variant.Int(int64(g)))
			cols[1] = append(cols[1], variant.Int(int64(g*3)))
			cols[2] = append(cols[2], variant.Int(int64(g+k)))
		}
	}
	return out
}

// prepareOverBatches prepares the operator op makes over a leaf replaying
// the prebuilt (rid, id, v) batches — with no scan below it and no result
// drain above.
func prepareOverBatches(tb testing.TB, batches []*vector.Batch, op func(in Node) Node) batchIter {
	tb.Helper()
	src := &viewRowsNode{schema: NewSchema([]string{"rid", "id", "v"}), src: &staticBatches{batches: batches}}
	ctx := &execContext{metrics: &Metrics{}, batchSize: vector.DefaultBatchSize, parallelism: 1, acct: &memAccountant{}}
	it, err := prepare(op(src), ctx)
	if err != nil {
		tb.Fatal(err)
	}
	return it
}

// clusteredReagg prepares GROUP BY "rid" over prebuilt clustered batches —
// the re-aggregate alone — on the named algorithm.
func clusteredReagg(tb testing.TB, stream bool, batches []*vector.Batch) batchIter {
	tb.Helper()
	return prepareOverBatches(tb, batches, func(in Node) Node {
		return &AggregateNode{
			Input:   in,
			GroupBy: []sqlast.Expr{sqlast.C("rid")}, GroupNames: []string{"__g0"},
			Aggs: []AggSpec{
				{Name: "COUNT", Star: true},
				{Name: "ANY_VALUE", Arg: sqlast.C("id")},
				{Name: "ARRAY_AGG", Arg: sqlast.C("v")},
			},
			AggNames: []string{"__a0", "__a1", "__a2"},
			Stream:   stream,
		}
	})
}

// drainCount pulls every batch and returns the row count, materializing
// nothing.
func drainCount(tb testing.TB, it batchIter) int {
	tb.Helper()
	defer it.Close()
	n := 0
	for {
		b, err := it.NextBatch()
		if err != nil {
			tb.Fatal(err)
		}
		if b == nil {
			return n
		}
		n += b.NumRows()
	}
}

// TestStreamAggregateAllocatesOnlyResults: per group the streaming aggregate
// allocates the ARRAY_AGG result array and nothing else — no group, key
// string, accumulator or row objects. The slack covers what is per batch or
// per query (the source's columns, the output columns growing to a batch).
func TestStreamAggregateAllocatesOnlyResults(t *testing.T) {
	const groups, slack = 4000, 400
	batches := clusteredBatches(groups, 4)
	its := make([]batchIter, 4) // AllocsPerRun: one warm-up call plus three runs
	for i := range its {
		its[i] = clusteredReagg(t, true, batches)
	}
	next := 0
	allocs := testing.AllocsPerRun(len(its)-1, func() {
		if n := drainCount(t, its[next]); n != groups {
			t.Fatalf("rows = %d", n)
		}
		next++
	})
	if allocs > groups+slack {
		t.Errorf("streaming aggregate allocated %.0f objects for %d groups, want one per group (the ARRAY_AGG array) plus at most %d", allocs, groups, slack)
	}
}

// TestSortAllocatesPerBatchNotPerRow: the sort copies its input, sorts row
// locators and gathers its output a column at a time, so sorting 10 000 rows
// at batch 1 024 allocates per batch and column — the dense copies, their
// key rows, the output vectors — and never a row.
func TestSortAllocatesPerBatchNotPerRow(t *testing.T) {
	const rows, bound = 10000, 300
	batches := clusteredBatches(rows/4, 4)
	its := make([]batchIter, 4) // AllocsPerRun: one warm-up call plus three runs
	for i := range its {
		its[i] = prepareOverBatches(t, batches, func(in Node) Node {
			return &SortNode{Input: in, Keys: []sqlast.OrderItem{{Expr: sqlast.C("v"), Desc: true}, {Expr: sqlast.C("id")}}}
		})
	}
	next := 0
	allocs := testing.AllocsPerRun(len(its)-1, func() {
		if n := drainCount(t, its[next]); n != rows {
			t.Fatalf("rows = %d", n)
		}
		next++
	})
	if allocs > bound {
		t.Errorf("sorting %d rows allocated %.0f objects, want at most %d (per batch and column, not per row)", rows, allocs, bound)
	}
}
