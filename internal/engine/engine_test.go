package engine

import (
	"fmt"
	"strings"
	"testing"

	"jsonpark/internal/variant"
)

// testEngine builds an engine with a small nested "adl"-like table and a
// relational "orders" table.
func testEngine(t *testing.T) *Engine {
	t.Helper()
	e := New()
	adl, err := e.Catalog().CreateTable("adl", []string{"EVENT", "MET", "Muon"})
	if err != nil {
		t.Fatal(err)
	}
	rows := []string{
		`{"EVENT": 1, "MET": {"pt": 10.5}, "Muon": [{"pt": 30.0, "charge": 1}, {"pt": 5.0, "charge": -1}]}`,
		`{"EVENT": 2, "MET": {"pt": 20.0}, "Muon": []}`,
		`{"EVENT": 3, "MET": {"pt": 35.5}, "Muon": [{"pt": 50.0, "charge": -1}]}`,
		`{"EVENT": 4, "MET": {"pt": 40.0}, "Muon": [{"pt": 8.0, "charge": 1}, {"pt": 9.0, "charge": 1}, {"pt": 60.0, "charge": -1}]}`,
	}
	for _, r := range rows {
		if err := adl.AppendObject(variant.MustParseJSON(r)); err != nil {
			t.Fatal(err)
		}
	}
	orders, err := e.Catalog().CreateTable("orders", []string{"o_id", "o_custkey", "o_totalprice", "o_clerk"})
	if err != nil {
		t.Fatal(err)
	}
	data := [][]variant.Value{
		{variant.Int(1), variant.Int(10), variant.Float(95000), variant.String("alice")},
		{variant.Int(2), variant.Int(10), variant.Float(50000), variant.String("bob")},
		{variant.Int(3), variant.Int(20), variant.Float(110000), variant.String("alice")},
		{variant.Int(4), variant.Int(30), variant.Float(115000), variant.String("carol")},
	}
	for _, r := range data {
		if err := orders.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	cust, err := e.Catalog().CreateTable("customer", []string{"c_custkey", "c_name"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]variant.Value{
		{variant.Int(10), variant.String("ten")},
		{variant.Int(20), variant.String("twenty")},
	} {
		if err := cust.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func mustQuery(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	r, err := e.Query(sql)
	if err != nil {
		t.Fatalf("Query(%s): %v", sql, err)
	}
	return r
}

func TestSelectStar(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT * FROM "adl"`)
	if len(r.Rows) != 4 || len(r.Columns) != 3 {
		t.Fatalf("rows=%d cols=%v", len(r.Rows), r.Columns)
	}
}

func TestWhereAndProjection(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT "EVENT" FROM "adl" WHERE GET("MET", 'pt') > 20`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	got := map[int64]bool{}
	for _, row := range r.Rows {
		got[row[0].AsInt()] = true
	}
	if !got[3] || !got[4] {
		t.Errorf("events = %v", got)
	}
}

func TestFig2CountDistinct(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT COUNT(DISTINCT "o_clerk") FROM (
		SELECT * FROM (SELECT * FROM "orders")
		WHERE (("o_totalprice" >= 90000 :: INT) AND ("o_totalprice" <= 120000 :: INT)))`)
	if len(r.Rows) != 1 || r.Rows[0][0].AsInt() != 2 {
		t.Fatalf("count distinct = %v", r.Rows)
	}
}

func TestFlattenInner(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT "EVENT", "f".VALUE AS "m", "f".INDEX AS "i" FROM (SELECT * FROM "adl"), LATERAL FLATTEN(INPUT => "Muon") AS "f"`)
	// 2 + 0 + 1 + 3 = 6 muons; event 2 disappears (inner flatten).
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row[0].AsInt() == 2 {
			t.Error("event 2 should be eliminated by inner flatten")
		}
	}
}

func TestFlattenOuterKeepsEmpty(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT "EVENT", "f".VALUE AS "m" FROM (SELECT * FROM "adl"), LATERAL FLATTEN(INPUT => "Muon", OUTER => TRUE) AS "f"`)
	if len(r.Rows) != 7 { // 6 muons + 1 null row for event 2
		t.Fatalf("rows = %d", len(r.Rows))
	}
	foundNull := false
	for _, row := range r.Rows {
		if row[0].AsInt() == 2 {
			if !row[1].IsNull() {
				t.Error("outer flatten VALUE should be NULL for empty array")
			}
			foundNull = true
		}
	}
	if !foundNull {
		t.Error("event 2 missing from outer flatten")
	}
}

func TestNestedQueryReaggregationPattern(t *testing.T) {
	// The full §IV-B pattern: rowid + flatten + filter + group-by rowid with
	// ARRAY_AGG and ANY_VALUE.
	e := testEngine(t)
	sql := `SELECT ANY_VALUE("EVENT") AS "ev", ARRAY_AGG(CASE WHEN "f".VALUE IS NOT NULL AND GET("f".VALUE, 'pt') > 10 THEN "f".VALUE ELSE NULL END) AS "filtered"
		FROM (SELECT *, SEQ8() AS "rid" FROM "adl"), LATERAL FLATTEN(INPUT => "Muon", OUTER => TRUE) AS "f"
		GROUP BY "rid" ORDER BY "ev" ASC`
	r := mustQuery(t, e, sql)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (no object elimination)", len(r.Rows))
	}
	wantLens := map[int64]int{1: 1, 2: 0, 3: 1, 4: 1}
	for _, row := range r.Rows {
		ev := row[0].AsInt()
		if row[1].Kind() != variant.KindArray {
			t.Fatalf("filtered not an array: %v", row[1])
		}
		if got := row[1].Len(); got != wantLens[ev] {
			t.Errorf("event %d filtered len = %d, want %d", ev, got, wantLens[ev])
		}
	}
}

func TestGroupByWithAggregates(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT "o_custkey", COUNT(*) AS "n", SUM("o_totalprice") AS "s", AVG("o_totalprice") AS "a", MIN("o_totalprice") AS "lo", MAX("o_totalprice") AS "hi"
		FROM "orders" GROUP BY "o_custkey" ORDER BY "o_custkey" ASC`)
	if len(r.Rows) != 3 {
		t.Fatalf("groups = %d", len(r.Rows))
	}
	first := r.Rows[0]
	if first[0].AsInt() != 10 || first[1].AsInt() != 2 || first[2].AsFloat() != 145000 {
		t.Errorf("group 10 = %v", first)
	}
	if first[3].AsFloat() != 72500 || first[4].AsFloat() != 50000 || first[5].AsFloat() != 95000 {
		t.Errorf("avg/min/max = %v", first)
	}
}

func TestGlobalAggregateOverEmptyInput(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT COUNT(*) AS "n", SUM("o_totalprice") AS "s", ARRAY_AGG("o_clerk") AS "arr" FROM "orders" WHERE "o_totalprice" < 0`)
	if len(r.Rows) != 1 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][0].AsInt() != 0 {
		t.Errorf("count = %v", r.Rows[0][0])
	}
	if !r.Rows[0][1].IsNull() {
		t.Errorf("sum = %v, want NULL", r.Rows[0][1])
	}
	if r.Rows[0][2].Kind() != variant.KindArray || r.Rows[0][2].Len() != 0 {
		t.Errorf("array_agg = %v, want []", r.Rows[0][2])
	}
}

func TestArrayAggOrdered(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT ARRAY_AGG("o_id") WITHIN GROUP (ORDER BY "o_totalprice" DESC) AS "ids" FROM "orders"`)
	arr := r.Rows[0][0]
	want := []int64{4, 3, 1, 2}
	for i, w := range want {
		if arr.Index(i).AsInt() != w {
			t.Fatalf("ids = %v, want %v", arr, want)
		}
	}
}

// TestOrderByAliasInsideWithinGroup pins that a select-list alias resolves
// in ORDER BY inside an aggregate's WITHIN GROUP keys as it does in its
// arguments; that WITHIN GROUP on a scalar call is an error naming the
// function, as in Snowflake; and the exact GROUP BY error a bare non-grouped
// column raises.
func TestOrderByAliasInsideWithinGroup(t *testing.T) {
	e := testEngine(t)
	const sel = `SELECT "o_custkey" AS "k", "o_clerk" AS "c", COUNT(*) AS "n" FROM "orders" GROUP BY "o_custkey", "o_clerk" `
	for _, c := range []struct{ sql, want string }{
		{sel + `ORDER BY MAX("c") DESC, "k"`, `[[30 "carol" 1] [10 "bob" 1] [10 "alice" 1] [20 "alice" 1]]`},
		{sel + `ORDER BY ARRAY_AGG("o_id") WITHIN GROUP (ORDER BY "c") DESC`, `[[30 "carol" 1] [20 "alice" 1] [10 "bob" 1] [10 "alice" 1]]`},
	} {
		if got := fmt.Sprint(mustQuery(t, e, c.sql).Rows); got != c.want {
			t.Errorf("%s\n got  %s\n want %s", c.sql, got, c.want)
		}
	}
	for _, sql := range []string{
		sel + `ORDER BY ABS("n") WITHIN GROUP (ORDER BY "k"), "o_custkey" DESC, "c"`,
		`SELECT ABS("o_id") WITHIN GROUP (ORDER BY "o_clerk") AS "a" FROM "orders" ORDER BY "a" DESC`,
	} {
		const want = "engine: WITHIN GROUP on ABS, which is not an aggregate"
		if _, err := e.Query(sql); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", sql, err, want)
		}
	}
	_, err := e.Query(`SELECT "o_custkey", ABS("o_id") FROM "orders" GROUP BY "o_custkey"`)
	if want := `engine: column "o_id" must appear in GROUP BY or inside an aggregate`; err == nil || err.Error() != want {
		t.Errorf("non-grouped column: err = %v, want %q", err, want)
	}
}

func TestHashJoinFromCrossPlusEquality(t *testing.T) {
	e := testEngine(t)
	sql := `SELECT "o_id", "c_name" FROM (SELECT * FROM "orders") CROSS JOIN (SELECT * FROM "customer") WHERE "o_custkey" = "c_custkey" ORDER BY "o_id" ASC`
	r := mustQuery(t, e, sql)
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][1].AsString() != "ten" || r.Rows[2][1].AsString() != "twenty" {
		t.Errorf("join result = %v", r.Rows)
	}
	// The optimizer must have converted it into a hash equi-join, and EXPLAIN
	// sizes its probe- and build-key DAGs.
	plan, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "INNER Join keys=1 exprs[nodes=2 distinct=2 slots=2]") {
		t.Errorf("expected hash join in plan:\n%s", plan)
	}
}

func TestLeftOuterJoin(t *testing.T) {
	e := testEngine(t)
	sql := `SELECT "o_id", "c_name" FROM (SELECT * FROM "orders") LEFT OUTER JOIN (SELECT * FROM "customer") ON "o_custkey" = "c_custkey" ORDER BY "o_id" ASC`
	r := mustQuery(t, e, sql)
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if !r.Rows[3][1].IsNull() { // custkey 30 has no customer
		t.Errorf("unmatched right side should be NULL: %v", r.Rows[3])
	}
}

func TestUnionAll(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `(SELECT "o_id" FROM "orders") UNION ALL (SELECT "c_custkey" FROM "customer")`)
	if len(r.Rows) != 6 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestOrderByLimitAndCase(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT "o_id", CASE WHEN "o_totalprice" > 100000 THEN 'big' ELSE 'small' END AS "sz" FROM "orders" ORDER BY "o_totalprice" DESC LIMIT 2`)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Rows[0][0].AsInt() != 4 || r.Rows[0][1].AsString() != "big" {
		t.Errorf("row0 = %v", r.Rows[0])
	}
}

func TestScalarFunctions(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT ABS(-2.5), SQRT(16.0), FLOOR(3.7), GREATEST(1, 5, 3), COALESCE(NULL, 7), IFF(TRUE, 'a', 'b'), ARRAY_SIZE(ARRAY_CONSTRUCT(1,2,3)), POWER(2.0, 10.0) FROM "orders" LIMIT 1`)
	row := r.Rows[0]
	checks := []struct {
		i    int
		want variant.Value
	}{
		{0, variant.Float(2.5)}, {1, variant.Float(4)}, {2, variant.Int(3)},
		{3, variant.Int(5)}, {4, variant.Int(7)}, {5, variant.String("a")},
		{6, variant.Int(3)}, {7, variant.Float(1024)},
	}
	for _, c := range checks {
		if !variant.Equal(row[c.i], c.want) {
			t.Errorf("col %d = %v, want %v", c.i, row[c.i], c.want)
		}
	}
}

func TestObjectConstructFolding(t *testing.T) {
	// GET(OBJECT_CONSTRUCT('a', col), 'a') should fold to col so that column
	// pruning still applies — the struct-field pushdown of the optimizer.
	e := testEngine(t)
	sql := `SELECT GET(OBJECT_CONSTRUCT('ev', "EVENT", 'met', "MET"), 'ev') AS "x" FROM "adl"`
	plan, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "cols=[EVENT]") {
		t.Errorf("expected pruned scan of only EVENT:\n%s", plan)
	}
	r := mustQuery(t, e, sql)
	if len(r.Rows) != 4 || r.Rows[0][0].Kind() != variant.KindInt {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestProjectionPruningReducesBytesScanned(t *testing.T) {
	e := testEngine(t)
	all := mustQuery(t, e, `SELECT * FROM "adl"`)
	one := mustQuery(t, e, `SELECT "EVENT" FROM "adl"`)
	if one.Metrics.BytesScanned >= all.Metrics.BytesScanned {
		t.Errorf("pruned scan bytes %d should be < full scan %d",
			one.Metrics.BytesScanned, all.Metrics.BytesScanned)
	}
}

func TestPartitionPruningViaZoneMaps(t *testing.T) {
	e := New()
	tab, err := e.Catalog().CreateTable("t", []string{"v"})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetTargetPartitionBytes(64)
	for i := 0; i < 100; i++ {
		if err := tab.Append([]variant.Value{variant.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	r := mustQuery(t, e, `SELECT "v" FROM "t" WHERE "v" >= 95`)
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	if r.Metrics.PartitionsPruned == 0 {
		t.Error("expected zone-map pruning to skip partitions")
	}
	if r.Metrics.PartitionsPruned+5 > r.Metrics.PartitionsTotal {
		// sanity: pruned < total
		t.Logf("pruned=%d total=%d", r.Metrics.PartitionsPruned, r.Metrics.PartitionsTotal)
	}
}

func TestPredicatePushdownThroughProject(t *testing.T) {
	e := testEngine(t)
	sql := `SELECT * FROM (SELECT "EVENT" AS "ev", GET("MET", 'pt') AS "met" FROM "adl") WHERE "met" > 20`
	plan, err := e.Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Scan adl") || !strings.Contains(plan, "filter=") {
		t.Errorf("expected filter pushed into scan:\n%s", plan)
	}
	r := mustQuery(t, e, sql)
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestSeq8RowIDsUnique(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT SEQ8() AS "rid", "EVENT" FROM "adl"`)
	seen := map[int64]bool{}
	for _, row := range r.Rows {
		id := row[0].AsInt()
		if seen[id] {
			t.Fatalf("duplicate row id %d", id)
		}
		seen[id] = true
	}
}

func TestThreeValuedLogic(t *testing.T) {
	e := testEngine(t)
	// NULL <> 'x' is NULL, so no rows pass; NOT NULL is NULL too.
	r := mustQuery(t, e, `SELECT "o_id" FROM "orders" WHERE NULL <> 'x'`)
	if len(r.Rows) != 0 {
		t.Errorf("NULL comparison passed rows: %v", r.Rows)
	}
	r = mustQuery(t, e, `SELECT "o_id" FROM "orders" WHERE "o_totalprice" > 100000 OR NULL`)
	if len(r.Rows) != 2 {
		t.Errorf("TRUE OR NULL rows = %d, want 2", len(r.Rows))
	}
}

func TestErrorsSurface(t *testing.T) {
	e := testEngine(t)
	cases := []string{
		`SELECT * FROM "missing"`,
		`SELECT "nope" FROM "orders"`,
		`SELECT UNKNOWN_FUNC("o_id") FROM "orders"`,
		`SELECT "o_id", SUM("o_totalprice") FROM "orders"`, // non-grouped column
		`SELECT`,
	}
	for _, sql := range cases {
		if _, err := e.Query(sql); err == nil {
			t.Errorf("Query(%q) succeeded, want error", sql)
		}
	}
}

func TestHavingClause(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT "o_custkey", COUNT(*) AS "n" FROM "orders" GROUP BY "o_custkey" HAVING COUNT(*) > 1`)
	if len(r.Rows) != 1 || r.Rows[0][0].AsInt() != 10 {
		t.Fatalf("rows = %v", r.Rows)
	}
}

func TestCompileAndExecTimesPopulated(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT COUNT(*) FROM "orders"`)
	if r.Metrics.CompileTime <= 0 {
		t.Error("compile time not measured")
	}
	if r.Metrics.RowsReturned != 1 {
		t.Errorf("rows returned = %d", r.Metrics.RowsReturned)
	}
}

func TestBoolAndAgg(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT "o_custkey", BOOLAND_AGG("o_totalprice" > 60000) AS "all_big" FROM "orders" GROUP BY "o_custkey" ORDER BY "o_custkey" ASC`)
	if r.Rows[0][1].AsBool() { // custkey 10 has a 50000 order
		t.Error("custkey 10 should not be all_big")
	}
	if !r.Rows[1][1].AsBool() {
		t.Error("custkey 20 should be all_big")
	}
}

func TestGroupByExpression(t *testing.T) {
	e := testEngine(t)
	r := mustQuery(t, e, `SELECT FLOOR("o_totalprice" / 100000.0) AS "bucket", COUNT(*) AS "n" FROM "orders" GROUP BY FLOOR("o_totalprice" / 100000.0) ORDER BY "bucket" ASC`)
	if len(r.Rows) != 2 {
		t.Fatalf("buckets = %v", r.Rows)
	}
	if r.Rows[0][1].AsInt() != 2 || r.Rows[1][1].AsInt() != 2 {
		t.Errorf("counts = %v", r.Rows)
	}
}
