package engine

import (
	"fmt"
	"strings"
	"testing"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// poisonRecycling turns the recycled-storage sentinel on for one test: every
// register, FLATTEN column and filter selection is overwritten before reuse,
// so a consumer reading a streamed batch past its producer's next NextBatch
// sees garbage instead of a lucky stale value.
func poisonRecycling(t *testing.T) {
	t.Helper()
	vector.SetPoison(true)
	t.Cleanup(func() { vector.SetPoison(false) })
}

// lifetimeQueries put every kind of consumer directly downstream of the
// streaming operators that recycle what they emit: the sort's drain, both
// join sides, LIMIT, UNION ALL, order-retaining aggregates and the result
// drain, each over computed projections (registers) and FLATTEN (recycled
// columns), with a filter's recycled selection in between.
var lifetimeQueries = []string{
	`SELECT "id", "f".VALUE + "val" AS "s" FROM (SELECT * FROM "events"), LATERAL FLATTEN(INPUT => "items") AS "f" ORDER BY "s" DESC, "id"`,
	`SELECT "id", "f".VALUE AS "v" FROM (SELECT * FROM "events"), LATERAL FLATTEN(INPUT => "items") AS "f" WHERE "f".VALUE % 7 <> 0 ORDER BY "v" DESC`,
	`SELECT "a", "b", "v" FROM (SELECT "id" * 2 AS "a", "grp" + 1 AS "ga" FROM "events" WHERE "id" < 60) INNER JOIN (SELECT "id" + 0 AS "b", "grp" + 1 AS "gb", "f".VALUE * 2 AS "v" FROM (SELECT * FROM "events" WHERE "id" < 40), LATERAL FLATTEN(INPUT => "items") AS "f") ON "ga" = "gb"`,
	`SELECT "a", "v" FROM (SELECT "id" * 2 AS "a", "f".INDEX + "grp" AS "ga" FROM (SELECT * FROM "events" WHERE "id" < 30), LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f") LEFT OUTER JOIN (SELECT "grp" + 3 AS "gb", "val" * 2 AS "v" FROM "events" WHERE "id" < 9) ON "ga" = "gb"`,
	// A left build: the small dim drains from a projection's registers, and
	// the matched right rows are kept from a filtered projection's.
	`SELECT "dn", "b", "v" FROM (SELECT "dk" + 1 AS "ga", "dn" FROM "dim") INNER JOIN (SELECT "id" * 2 AS "b", "grp" + 1 AS "gb", "val" * 3 AS "v" FROM "events" WHERE "id" % 5 <> 0) ON "ga" = "gb"`,
	`SELECT "id", "f".VALUE * 3 AS "t" FROM (SELECT * FROM "events"), LATERAL FLATTEN(INPUT => "items") AS "f" LIMIT 37`,
	`(SELECT "id" * 2 AS "v" FROM "events" WHERE "grp" = 1) UNION ALL (SELECT "f".VALUE + 1 AS "v" FROM (SELECT * FROM "events" WHERE "grp" = 2), LATERAL FLATTEN(INPUT => "items") AS "f")`,
	`SELECT "grp", ARRAY_AGG("f".VALUE * 2), ANY_VALUE("id" + 1) FROM (SELECT * FROM "events"), LATERAL FLATTEN(INPUT => "items") AS "f" GROUP BY "grp"`,
	`SELECT "grp", ARRAY_AGG("id" + 1) WITHIN GROUP (ORDER BY "val" * 2 DESC, "id") FROM "events" GROUP BY "grp"`,
	`SELECT "id", "val" * 2 AS "d", CASE WHEN "val" > 5 THEN "id" ELSE -"id" END AS "c" FROM "events" WHERE "val" > 2 OR "id" < 10`,
	`SELECT "id", "f".VALUE, "f".INDEX FROM (SELECT * FROM "events"), LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f" WHERE "id" < 50`,
	// Typed registers: a range FLATTEN's int64 VALUE and INDEX, and a typed
	// projected root, kept by the exchange, which detaches and must copy a
	// register where it shares a chunk view, and then by the sort's dense
	// copy.
	`SELECT "id", "f".VALUE * 2.5 AS "v", "f".INDEX + "grp" AS "w" FROM (SELECT * FROM "events"), LATERAL FLATTEN(INPUT => ARRAY_RANGE("grp", "grp" * 2 + 1)) AS "f" ORDER BY "v", "id"`,
	// A stateful sort key with many duplicate keys: SEQ8 numbers the sort's
	// input rows once, in input order, and ties keep input order.
	`SELECT "grp", "id", "val" FROM "events" ORDER BY "grp", SEQ8() % 3 DESC, "val"`,
	// Stacked streaming aggregates (the shape of ADL q7/q8): each recycles its
	// output columns under a FLATTEN, a filter and the next aggregate.
	`SELECT "rid", ARRAY_AGG("n") WITHIN GROUP (ORDER BY "n" DESC), ANY_VALUE("id") FROM (SELECT "r2", ANY_VALUE("rid") AS "rid", ANY_VALUE("id") AS "id", COUNT_IF("g".VALUE > "v") AS "n" FROM (SELECT * FROM (SELECT *, SEQ8() AS "r2" FROM (SELECT "rid", "id", "items", "f".VALUE AS "v" FROM (SELECT *, SEQ8() AS "rid" FROM "events"), LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f")), LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "g") GROUP BY "r2") WHERE "n" < 3 GROUP BY "rid"`,
}

// TestPoisonedRecyclingParity is the batch-lifetime contract's regression:
// with recycled storage poisoned, every batch size × parallelism must still
// return what the unpoisoned engine returns, byte for byte.
func TestPoisonedRecyclingParity(t *testing.T) {
	queries := append(append(append([]string(nil), lifetimeQueries...), parityQueries...), breakerQueries...)
	ref := multiPartEngine(t, WithBatchSize(1024), WithParallelism(1))
	want := make([]string, len(queries))
	for i, sql := range queries {
		want[i] = renderRows(mustQuery(t, ref, sql))
	}
	poisonRecycling(t)
	for _, bs := range []int{1, 2, 7, 1024} {
		for _, par := range []int{1, 4} {
			e := multiPartEngine(t, WithBatchSize(bs), WithParallelism(par), planChecked())
			for i, sql := range queries {
				res, err := e.Query(sql)
				if err != nil {
					t.Fatalf("%s [bs=%d par=%d]: %v", sql, bs, par, err)
				}
				if got := renderRows(res); got != want[i] {
					t.Errorf("%s: poisoned bs=%d par=%d diverges\ngot:\n%s\nwant:\n%s", sql, bs, par, got, want[i])
				}
			}
		}
	}
}

// sharingEngine loads x, d (zero on every fifth row) and a row number.
func sharingEngine(t *testing.T, bs int) *Engine {
	t.Helper()
	e := New(WithBatchSize(bs), WithParallelism(1))
	tab, err := e.Catalog().CreateTable("t", []string{"n", "x", "d"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		row := []variant.Value{variant.Int(int64(i)), variant.Int(int64(100 + i)), variant.Int(int64(i % 5))}
		if err := tab.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestSharingKeepsSeqDistinct: SEQ8 is never hash-consed. Two calls in one
// select list are two counters, and the one inside a CASE arm only counts
// the rows that reach it.
func TestSharingKeepsSeqDistinct(t *testing.T) {
	for _, bs := range []int{1, 7, 1024} {
		e := sharingEngine(t, bs)
		r := mustQuery(t, e, `SELECT SEQ8() AS "a", SEQ8() AS "b", CASE WHEN "n" % 2 = 0 THEN SEQ8() END AS "c" FROM "t"`)
		for i, row := range r.Rows {
			wantC := "null"
			if i%2 == 0 {
				wantC = fmt.Sprint(i / 2)
			}
			if row[0].AsInt() != int64(i) || row[1].AsInt() != int64(i) || row[2].JSON() != wantC {
				t.Fatalf("bs=%d row %d = %v, want [%d %d %s]", bs, i, row, i, i, wantC)
			}
		}
	}
	seq := sqlast.F("SEQ8")
	d, err := compileVecs(nil, nil, NewSchema(nil), []sqlast.Expr{sqlast.B("+", seq, sqlast.L(variant.Int(1))), sqlast.B("+", sqlast.F("SEQ8"), sqlast.L(variant.Int(1)))})
	if err != nil {
		t.Fatal(err)
	}
	if st := d.stats(); st.Nodes != 6 || st.Distinct != 5 { // only the literal is shared
		t.Errorf("SEQ8()+1 twice compiled to %v, want nodes=6 distinct=5", st)
	}
}

// TestSharingKeepsErrorsWhereTheyWere: a division guarded by a CASE arm is
// never shared with an unguarded one, in either order, so the division error
// comes from the unconditional use only and reads exactly as it always did.
func TestSharingKeepsErrorsWhereTheyWere(t *testing.T) {
	_, divErr := variant.Div(variant.Int(1), variant.Int(0))
	for _, bs := range []int{1, 7, 1024} {
		e := sharingEngine(t, bs)
		r := mustQuery(t, e, `SELECT CASE WHEN "d" <> 0 THEN "x" / "d" END AS "safe", "n" FROM "t"`)
		for i, row := range r.Rows {
			if (i%5 == 0) != row[0].IsNull() {
				t.Fatalf("bs=%d guarded division row %d = %v", bs, i, row)
			}
		}
		_, plain := e.Query(`SELECT "x" / "d" FROM "t"`)
		if plain == nil || plain.Error() != divErr.Error() {
			t.Fatalf("bs=%d unguarded division error = %v, want %v", bs, plain, divErr)
		}
		for _, sql := range []string{
			`SELECT CASE WHEN "d" <> 0 THEN "x" / "d" END AS "safe", "x" / "d" AS "raw" FROM "t"`,
			`SELECT "x" / "d" AS "raw", CASE WHEN "d" <> 0 THEN "x" / "d" END AS "safe" FROM "t"`,
			`SELECT "n" FROM "t" WHERE ("d" <> 0 AND "x" / "d" > 1) OR "x" / "d" > 1000`,
		} {
			if _, err := e.Query(sql); err == nil || err.Error() != plain.Error() {
				t.Errorf("bs=%d %s: error = %v, want %q", bs, sql, err, plain)
			}
		}
	}
}

// TestSharingNeverReadsAnArmsValueOutside: a sub-expression first evaluated
// inside an arm holds values for the arm's rows only, so a later
// unconditional use evaluates it again — while the other way round, arm
// after unconditional, reads the register that is already there.
func TestSharingNeverReadsAnArmsValueOutside(t *testing.T) {
	poisonRecycling(t)
	for _, bs := range []int{1, 7, 1024} {
		e := sharingEngine(t, bs)
		r := mustQuery(t, e, `SELECT CASE WHEN "n" % 2 = 0 THEN "x" * 10 END AS "arm", "x" * 10 AS "all", "n" % 2 = 0 AND "x" * 10 > 0 AS "lazy" FROM "t"`)
		for i, row := range r.Rows {
			if row[1].AsInt() != int64(100+i)*10 {
				t.Fatalf("bs=%d row %d: unconditional x*10 = %v, want %d (stale arm value?)", bs, i, row[1], (100+i)*10)
			}
			if (i%2 == 0) != (row[0].AsInt() == int64(100+i)*10) || row[2].AsBool() != (i%2 == 0) {
				t.Fatalf("bs=%d row %d = %v", bs, i, row)
			}
		}
	}
	sc := NewSchema([]string{"n", "x"})
	mul := func() sqlast.Expr { return sqlast.B("*", sqlast.C("x"), sqlast.L(variant.Int(10))) }
	arm := func() sqlast.Expr {
		return &sqlast.CaseWhen{Whens: []sqlast.WhenClause{{Cond: sqlast.B(">", sqlast.C("n"), sqlast.L(variant.Int(3))), Result: mul()}}}
	}
	stats := func(exprs ...sqlast.Expr) exprStats {
		d, err := compileVecs(nil, nil, sc, exprs)
		if err != nil {
			t.Fatal(err)
		}
		return d.stats()
	}
	armFirst, armLast := stats(arm(), mul()), stats(mul(), arm())
	if armFirst.Nodes != armLast.Nodes || armFirst.Distinct != armLast.Distinct+1 {
		t.Errorf("arm first %v vs arm last %v: want exactly one more instance (x*10 re-evaluated) when the arm comes first", armFirst, armLast)
	}
}

// TestExplainPrintsExprDAG: sharing is observable. EXPLAIN and EXPLAIN
// ANALYZE print exprs[nodes= distinct= slots=] on every operator that
// evaluates expressions, and the engine.prepare span carries the totals.
func TestExplainPrintsExprDAG(t *testing.T) {
	e := multiPartEngine(t, WithParallelism(1))
	sql := `SELECT "grp", COUNT(*), MAX("s") FROM (SELECT "grp", "f".VALUE * 2 + "f".VALUE * 2 AS "s" FROM (SELECT * FROM "events"), LATERAL FLATTEN(INPUT => "items") AS "f" WHERE "f".VALUE * 2 > 10) GROUP BY "grp"`
	plan, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	_, ps, err := e.QueryAnalyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{plan, ps.Render()} {
		for _, op := range []string{"Aggregate", "Project", "Filter", "Flatten"} {
			found := false
			for _, line := range strings.Split(text, "\n") {
				if strings.HasPrefix(strings.TrimSpace(line), op) && strings.Contains(line, "exprs[nodes=") {
					found = true
				}
			}
			if !found {
				t.Errorf("%s line carries no exprs[...]:\n%s", op, text)
			}
		}
	}
	var shared bool
	ps.Walk(func(_ int, n *PlanStats) {
		if n.Op == "Project" && n.ExprDistinct < n.ExprNodes && n.ExprSlots > 0 {
			shared = true // f.VALUE*2 appears twice in the select list
		}
	})
	if !shared {
		t.Errorf("no Project reports sharing (distinct < nodes):\n%s", ps.Render())
	}
}
