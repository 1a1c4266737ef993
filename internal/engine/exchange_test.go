package engine

import (
	"fmt"
	"strings"
	"testing"

	"jsonpark/internal/variant"
)

// oneTableEngine loads docs into table "t" as ONE storage partition — what
// the exchange must cut into morsels to fan out — with the morsel size, when
// morselRows > 0, shrunk by the test hook.
func oneTableEngine(t testing.TB, docs []string, morselRows int, opts ...Option) *Engine {
	t.Helper()
	e := New(opts...)
	e.morselRows = morselRows
	tab, err := e.Catalog().CreateTable("t", []string{"id", "items"})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetTargetPartitionBytes(1 << 40)
	for _, d := range docs {
		if err := tab.AppendObject(variant.MustParseJSON(d)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// itemDocs are n rows whose arrays hold i%4 elements, so an OUTER FLATTEN
// turns row i into max(1, i%4) rows.
func itemDocs(n int) []string {
	docs := make([]string, n)
	for i := range docs {
		items := make([]string, i%4)
		for k := range items {
			items[k] = fmt.Sprint(i*10 + k)
		}
		docs[i] = fmt.Sprintf(`{"id": %d, "items": [%s]}`, i, strings.Join(items, ", "))
	}
	return docs
}

// ridFlatT is the nested-query shape over "t": row ID, then OUTER FLATTEN.
const ridFlatT = `(SELECT * FROM (SELECT *, SEQ8() AS "rid" FROM "t"), LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f")`

// exchangeDetail returns the first Exchange line's detail of an analyzed plan.
func exchangeDetail(ps *PlanStats) string {
	detail := "<no exchange>"
	found := false
	ps.Walk(func(_ int, n *PlanStats) {
		if n.Op == "Exchange" && !found {
			detail, found = n.Detail, true
		}
	})
	return detail
}

// TestExchangeRowIDsExact: a row ID that reaches the result comes out as
// exactly 0..n-1 from a one-partition table cut into five morsels, at every
// parallelism × batch size with recycled storage poisoned, and EXPLAIN
// ANALYZE says whether the exchange fanned out.
func TestExchangeRowIDsExact(t *testing.T) {
	const n = 5000 // five morsels of minMorselRows, rounded up to whole batches
	docs := itemDocs(n)
	sql := `SELECT "rid", COUNT(*) FROM ` + ridFlatT + ` GROUP BY "rid"`
	poisonRecycling(t)
	for _, bs := range []int{1, 7, 1024} {
		for _, par := range []int{1, 2, 4} {
			e := oneTableEngine(t, docs, 0, WithBatchSize(bs), WithParallelism(par), planChecked())
			res, ps, err := e.QueryAnalyze(sql)
			if err != nil {
				t.Fatalf("bs=%d par=%d: %v", bs, par, err)
			}
			if len(res.Rows) != n {
				t.Fatalf("bs=%d par=%d: %d rows, want %d", bs, par, len(res.Rows), n)
			}
			for i, row := range res.Rows {
				if row[0].Kind() != variant.KindInt || row[0].AsInt() != int64(i) || row[1].AsInt() != int64(max(1, i%4)) {
					t.Fatalf("bs=%d par=%d: row %d = %v, want [%d %d]", bs, par, i, row, i, max(1, i%4))
				}
			}
			want := "sequential: parallelism 1"
			if par > 1 {
				want = fmt.Sprintf("workers=%d morsels=5 renumber=[rid]", par)
			}
			if got := exchangeDetail(ps); got != want {
				t.Errorf("bs=%d par=%d: exchange %q, want %q", bs, par, got, want)
			}
		}
	}
}

// TestExchangeFirstErrorInRowOrder: with errors in two morsels, the one
// earlier in row order surfaces with the sequential message whichever
// worker finishes first, and a LIMIT satisfied before either error stops the
// query cleanly, as sequential execution does.
func TestExchangeFirstErrorInRowOrder(t *testing.T) {
	docs := itemDocs(5000)
	docs[3500] = `{"id": 3500, "items": [1, "x"]}`
	docs[4500] = `{"id": 4500, "items": [{"o": 1}]}`
	sql := `SELECT "rid", SUM("f".VALUE) FROM ` + ridFlatT + ` GROUP BY "rid"`
	_, want := oneTableEngine(t, docs, 0, WithParallelism(1)).Query(sql)
	if want == nil || !strings.Contains(want.Error(), "type VARCHAR") {
		t.Fatalf("sequential error: %v", want)
	}
	for _, bs := range []int{7, 1024} {
		for _, par := range []int{2, 4} {
			e := oneTableEngine(t, docs, 0, WithBatchSize(bs), WithParallelism(par))
			if _, err := e.Query(sql); err == nil || err.Error() != want.Error() {
				t.Errorf("bs=%d par=%d: got %v, want %v", bs, par, err, want)
			}
			res, err := e.Query(sql + ` LIMIT 10`)
			if err != nil || len(res.Rows) != 10 {
				t.Errorf("bs=%d par=%d LIMIT 10: %v rows, err %v", bs, par, res, err)
			}
		}
	}
}

// TestExchangeSaysWhySequential: a segment with a FLATTEN or streamed
// aggregate that cannot fan out names the rule in EXPLAIN, and EXPLAIN
// ANALYZE names the run-time reasons.
func TestExchangeSaysWhySequential(t *testing.T) {
	e := oneTableEngine(t, itemDocs(50), 0, WithParallelism(4))
	for _, c := range []struct{ sql, why string }{
		{`SELECT "rid", COUNT(*) FROM ` + ridFlatT + ` WHERE "rid" % 2 = 0 GROUP BY "rid"`, "row id in predicate"},
		{`SELECT "r2", COUNT(*) FROM (SELECT "rid" * 2 AS "r2", "f".VALUE AS "v" FROM ` + ridFlatT + `) GROUP BY "r2"`, "row id in expression"},
		{`SELECT "rid", ARRAY_AGG("rid") FROM ` + ridFlatT + ` GROUP BY "rid"`, "row id in aggregate"},
		{`SELECT "f".VALUE FROM (SELECT *, SEQ8() AS "rid" FROM "t"), LATERAL FLATTEN(INPUT => ARRAY_CONSTRUCT("rid", "id")) AS "f"`, "row id in FLATTEN input"},
	} {
		plan, err := e.Explain(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(plan, "Exchange sequential: "+c.why) {
			t.Errorf("%s: EXPLAIN lacks %q:\n%s", c.sql, c.why, plan)
		}
	}
	sql := `SELECT "rid", COUNT(*) FROM ` + ridFlatT + ` GROUP BY "rid"`
	for _, c := range []struct {
		e   *Engine
		why string
	}{
		{e, "sequential: one morsel"},
		{oneTableEngine(t, itemDocs(50), 0, WithParallelism(1)), "sequential: parallelism 1"},
		{oneTableEngine(t, nil, 0, WithParallelism(4)), "sequential: no morsels"},
		{oneTableEngine(t, itemDocs(50), 8, WithParallelism(4), WithBatchSize(8)), "workers=4 morsels=7 renumber=[rid]"},
	} {
		_, ps, err := c.e.QueryAnalyze(sql)
		if err != nil {
			t.Fatal(err)
		}
		if got := exchangeDetail(ps); got != c.why {
			t.Errorf("exchange %q, want %q", got, c.why)
		}
	}
}

// TestExchangeCensusCounts: physicalize counts the exchanges that may fan
// out — a property of the plan, whatever the parallelism it will run at;
// plain scan pipelines get none.
func TestExchangeCensusCounts(t *testing.T) {
	e := oneTableEngine(t, itemDocs(10), 0)
	for _, c := range []struct {
		sql  string
		want int
	}{
		{`SELECT "rid", COUNT(*) FROM ` + ridFlatT + ` GROUP BY "rid"`, 1},
		{`SELECT "id", COUNT(*) FROM "t" GROUP BY "id"`, 0},
		{`SELECT "rid", ARRAY_AGG("rid") FROM ` + ridFlatT + ` GROUP BY "rid"`, 0},
	} {
		if _, counts := physicalize(buildPlan(t, e, c.sql), false); counts.parallelPipelines != c.want {
			t.Errorf("%s: %d parallel pipelines, want %d", c.sql, counts.parallelPipelines, c.want)
		}
	}
}
