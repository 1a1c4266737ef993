package engine

import (
	"strings"
	"testing"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/sqlparse"
	"jsonpark/internal/variant"
)

func planOf(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	plan, err := e.Explain(sql)
	if err != nil {
		t.Fatalf("Explain(%s): %v", sql, err)
	}
	return plan
}

func TestProjectMergingCollapsesWithColumnChains(t *testing.T) {
	e := testEngine(t)
	// Three stacked derived-column SELECTs must merge into few projections.
	sql := `SELECT "c" FROM (
		SELECT *, "b" + 1 AS "c" FROM (
			SELECT *, "a" * 2 AS "b" FROM (
				SELECT "o_id" AS "a" FROM "orders")))`
	plan := planOf(t, e, sql)
	if got := strings.Count(plan, "Project"); got > 2 {
		t.Errorf("expected merged projections, got %d:\n%s", got, plan)
	}
	r := mustQuery(t, e, sql+` ORDER BY "c" ASC`)
	if r.Rows[0][0].AsInt() != 1*2+1 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestProjectMergingPreservesSeq8Uniqueness(t *testing.T) {
	e := testEngine(t)
	// SEQ8 referenced once may inline; values must stay unique per row.
	r := mustQuery(t, e, `SELECT "rid" + 100 AS "x" FROM (SELECT *, SEQ8() AS "rid" FROM "orders")`)
	seen := map[int64]bool{}
	for _, row := range r.Rows {
		v := row[0].AsInt()
		if seen[v] {
			t.Fatalf("duplicate seq value %d", v)
		}
		seen[v] = true
	}
}

func TestProjectMergingDoesNotDuplicateSeq8(t *testing.T) {
	e := testEngine(t)
	// SEQ8 referenced twice must NOT inline (two evaluations would yield
	// different values); x - y must be 0 on every row.
	r := mustQuery(t, e, `SELECT "rid" - "rid" AS "z" FROM (SELECT *, SEQ8() AS "rid" FROM "orders")`)
	for _, row := range r.Rows {
		if row[0].AsInt() != 0 {
			t.Fatalf("seq8 evaluated twice after merge: %v", row)
		}
	}
}

func TestProjectMergingKeepsExpensiveSharedDefs(t *testing.T) {
	e := testEngine(t)
	// A computed definition used twice stays materialized (one level kept),
	// and results remain correct.
	r := mustQuery(t, e, `SELECT "m" + "m" AS "s" FROM (SELECT *, "o_totalprice" * 2 AS "m" FROM "orders") ORDER BY "s" ASC`)
	if r.Rows[0][0].AsFloat() != 50000*4 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestPushdownThroughFlattenStopsAtAliasRefs(t *testing.T) {
	e := testEngine(t)
	sql := `SELECT "EVENT" FROM (SELECT * FROM "adl"), LATERAL FLATTEN(INPUT => "Muon") AS "f"
		WHERE "EVENT" > 1 AND GET("f".VALUE, 'pt') > 10`
	plan := planOf(t, e, sql)
	// The EVENT conjunct sinks into the scan; the VALUE conjunct stays above
	// the flatten.
	if !strings.Contains(plan, `filter=("EVENT" > 1)`) {
		t.Errorf("EVENT predicate not pushed:\n%s", plan)
	}
	if !strings.Contains(plan, "Filter") {
		t.Errorf("flatten predicate should remain as filter:\n%s", plan)
	}
	r := mustQuery(t, e, sql)
	if len(r.Rows) != 2 { // events 3 and 4 have muons with pt>10
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestPushdownIntoUnionBranches(t *testing.T) {
	e := testEngine(t)
	sql := `SELECT * FROM ((SELECT "o_id" AS "v" FROM "orders") UNION ALL (SELECT "o_custkey" AS "v" FROM "orders")) WHERE "v" > 5`
	r := mustQuery(t, e, sql)
	if len(r.Rows) != 4 { // custkeys 10, 10, 20, 30; no o_id exceeds 5
		t.Errorf("rows = %v", r.Rows)
	}
	plan := planOf(t, e, sql)
	if strings.Count(plan, "filter=") != 2 {
		t.Errorf("predicate should sink into both branches:\n%s", plan)
	}
}

func TestNoPushdownThroughLimit(t *testing.T) {
	e := testEngine(t)
	// Filtering after LIMIT differs from filtering before it.
	sql := `SELECT * FROM (SELECT "o_id" FROM "orders" ORDER BY "o_id" ASC LIMIT 2) WHERE "o_id" > 1`
	r := mustQuery(t, e, sql)
	if len(r.Rows) != 1 || r.Rows[0][0].AsInt() != 2 {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestLeftOuterJoinWhereOnLeftPushes(t *testing.T) {
	e := testEngine(t)
	sql := `SELECT "o_id", "c_name" FROM (SELECT * FROM "orders") LEFT OUTER JOIN (SELECT * FROM "customer") ON "o_custkey" = "c_custkey" WHERE "o_totalprice" > 100000 ORDER BY "o_id" ASC`
	r := mustQuery(t, e, sql)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %v", r.Rows)
	}
	if !r.Rows[1][1].IsNull() {
		t.Errorf("order 4 should keep NULL customer: %v", r.Rows[1])
	}
}

func TestSimplifyFoldsConstants(t *testing.T) {
	e := testEngine(t)
	plan := planOf(t, e, `SELECT "o_id" FROM "orders" WHERE 1 + 1 = 2 AND "o_id" > 0`)
	if strings.Contains(plan, "1 + 1") {
		t.Errorf("constant arithmetic not folded:\n%s", plan)
	}
	r := mustQuery(t, e, `SELECT "o_id" FROM "orders" WHERE 1 = 2`)
	if len(r.Rows) != 0 {
		t.Errorf("contradiction returned rows: %v", r.Rows)
	}
	if plan := planOf(t, e, `SELECT "o_id" FROM "orders" WHERE '12'::INT > 0`); !strings.Contains(plan, "filter=TRUE") {
		t.Errorf("constant cast not folded:\n%s", plan)
	}
	// A literal expression that errors when folded stays in the plan and
	// fails when it runs, with the error evaluation has always raised.
	failing := `SELECT "o_id" FROM "orders" WHERE 'abc'::INT > 0`
	if plan := planOf(t, e, failing); !strings.Contains(plan, "('abc' :: INT)") {
		t.Errorf("failing cast folded away:\n%s", plan)
	}
	if _, err := e.Query(failing); err == nil || err.Error() != "variant: cannot coerce VARCHAR to NUMBER" {
		t.Errorf("failing cast: error %v", err)
	}
}

// TestLogicalShortCircuitsKeepTruth: TRUE AND x and x OR FALSE fold to x
// only when x is boolean-valued — the operators return a boolean, never a
// string or number operand — and IFF reads its condition's truth as AND,
// OR, WHERE and CASE do.
func TestLogicalShortCircuitsKeepTruth(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT TRUE AND "o_clerk", "o_id" OR FALSE, TRUE AND "o_id" - 1,
		IFF("o_id", 'yes', 'no'), IFF("o_id" - 1, 'yes', 'no'), IFF("o_clerk", 'yes', 'no')
		FROM "orders" WHERE "o_id" = 1`)
	want := []variant.Value{variant.Bool(false), variant.Bool(true), variant.Bool(false),
		variant.String("yes"), variant.String("no"), variant.String("no")}
	for i, w := range want {
		if got := r.Rows[0][i]; !variant.Equal(got, w) {
			t.Errorf("column %d = %s, want %s", i, got.JSON(), w.JSON())
		}
	}
	plan := planOf(t, e, `SELECT "o_id" FROM "orders" WHERE TRUE AND "o_id" > 1 AND (FALSE OR "o_id" < 4)`)
	if strings.Contains(plan, "TRUE") || strings.Contains(plan, "FALSE") {
		t.Errorf("short circuit over a comparison not folded:\n%s", plan)
	}
}

func TestGetArrayConstructFolding(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT GET(ARRAY_CONSTRUCT("o_id", "o_custkey"), 1) AS "x" FROM "orders" ORDER BY "x" ASC LIMIT 1`)
	if r.Rows[0][0].AsInt() != 10 {
		t.Errorf("rows = %v", r.Rows)
	}
	// Out-of-range index folds to NULL.
	r = mustQuery(t, e, `SELECT GET(ARRAY_CONSTRUCT("o_id"), 5) AS "x" FROM "orders" LIMIT 1`)
	if !r.Rows[0][0].IsNull() {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestPrunePredicateFromNestedGet(t *testing.T) {
	e := New()
	tab, err := e.Catalog().CreateTable("t", []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetTargetPartitionBytes(128)
	for i := 0; i < 64; i++ {
		obj := variant.ObjectFromPairs("a", variant.ObjectFromPairs("b", variant.Int(int64(i))))
		if err := tab.Append([]variant.Value{obj}); err != nil {
			t.Fatal(err)
		}
	}
	r := mustQuery(t, e, `SELECT "v" FROM "t" WHERE GET(GET("v", 'a'), 'b') >= 60`)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Metrics.PartitionsPruned == 0 {
		t.Error("nested GET path should derive a zone-map prune predicate")
	}
}

func TestToPrunePredicateShapes(t *testing.T) {
	mk := func(sql string) sqlast.Expr {
		q, err := sqlparse.Parse("SELECT * FROM t WHERE " + sql)
		if err != nil {
			t.Fatal(err)
		}
		return q.(*sqlast.Select).Where
	}
	cases := []struct {
		cond string
		ok   bool
		path string
	}{
		{`"c" > 5`, true, ""},
		{`5 < "c"`, true, ""},
		{`GET("c", 'x') = 1`, true, "x"},
		{`GET(GET("c", 'x'), 'y') <= 2`, true, "x.y"},
		{`"a" <> 1`, false, ""},
		{`"a" > "b"`, false, ""},
		{`GET("c", "k") = 1`, false, ""}, // non-literal key
		{`"a" = NULL`, false, ""},
	}
	for _, c := range cases {
		pred, ok := toPrunePredicate(mk(c.cond))
		if ok != c.ok {
			t.Errorf("toPrunePredicate(%s) ok = %v, want %v", c.cond, ok, c.ok)
			continue
		}
		if ok && pred.Path != c.path {
			t.Errorf("toPrunePredicate(%s) path = %q, want %q", c.cond, pred.Path, c.path)
		}
	}
}

func TestPruningKeepsAtLeastOneColumn(t *testing.T) {
	e := testEngine(t)
	// COUNT(*) needs no columns, but the scan must still produce rows.
	r := mustQuery(t, e, `SELECT COUNT(*) FROM "adl"`)
	if r.Rows[0][0].AsInt() != 4 {
		t.Errorf("count = %v", r.Rows[0][0])
	}
}

func TestUnusedAggregatesPruned(t *testing.T) {
	e := testEngine(t)
	// ANY_VALUE("Muon") is computed in the subquery but never consumed; the
	// scan must not read the Muon column.
	sql := `SELECT "n" FROM (SELECT "o" AS "o", ANY_VALUE("Muon") AS "m", COUNT(*) AS "n" FROM (SELECT "EVENT" AS "o", "Muon" FROM "adl") GROUP BY "o")`
	plan := planOf(t, e, sql)
	if strings.Contains(plan, "Muon") {
		t.Errorf("unused aggregate input not pruned:\n%s", plan)
	}
}

// TestSimplifyJoinKeys: simplify runs after pushdown has split a join's ON
// into hash keys and a residual, so it must fold those, not the cleared ON:
// GET(OBJECT_CONSTRUCT('k', c), 'k') on the build side ends as the plain
// column c.
func TestSimplifyJoinKeys(t *testing.T) {
	e := testEngine(t)
	const sql = `SELECT "o_id", "c_name" FROM (SELECT * FROM "orders") JOIN (SELECT * FROM "customer")
		ON "o_custkey" = GET(OBJECT_CONSTRUCT('k', "c_custkey"), 'k') AND "o_totalprice" > GET(OBJECT_CONSTRUCT('k', "c_custkey"), 'k')`
	check := func(name string, plan Node) {
		t.Helper()
		var j *JoinNode
		forEachNode(plan, func(n Node) {
			if x, ok := n.(*JoinNode); ok {
				j = x
			}
		})
		if j == nil || len(j.RightKeys) != 1 {
			t.Fatalf("%s: want one join with one key pair", name)
		}
		if cr, ok := j.RightKeys[0].(*sqlast.ColRef); !ok || cr.QualifiedName() != "c_custkey" {
			t.Errorf("%s: right key %s, want \"c_custkey\"", name, sqlast.RenderExpr(j.RightKeys[0]))
		}
		if res := sqlast.RenderExpr(j.Residual); res != `("o_totalprice" > "c_custkey")` {
			t.Errorf("%s: residual %s, want (\"o_totalprice\" > \"c_custkey\")", name, res)
		}
	}
	check("optimize", buildPlan(t, e, sql))

	// The rule alone, on the shape pushdown leaves: ON cleared, keys and
	// residual holding the unfolded expressions.
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (&planner{catalog: e.Catalog()}).Build(q)
	if err != nil {
		t.Fatal(err)
	}
	check("pushdown+simplify", simplifyNode(pushDown(plan)))

	if r := mustQuery(t, e, sql); len(r.Rows) != 3 {
		t.Errorf("rows = %v, want the 3 orders with a customer", r.Rows)
	}
}
