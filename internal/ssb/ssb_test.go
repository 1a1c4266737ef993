package ssb

import (
	"strings"
	"testing"

	"jsonpark/internal/engine"
	"jsonpark/internal/runtime"
	"jsonpark/internal/snowpark"
)

// testTables generates a small database with a reduced date dimension so the
// interpreted runtime's materialized cross products stay tractable.
func testTables(t *testing.T) *Tables {
	t.Helper()
	sz := Sizes{Lineorders: 2500, Customers: 60, Suppliers: 25, Parts: 120, Dates: 84}
	return Generate(77, sz)
}

func testEngines(t *testing.T) (*snowpark.Session, *runtime.Engine) {
	t.Helper()
	tab := testTables(t)
	eng := engine.New()
	if err := tab.Load(eng); err != nil {
		t.Fatal(err)
	}
	rt := runtime.New(runtime.ProfileDefault)
	tab.LoadRuntime(rt)
	return snowpark.NewSession(eng), rt
}

// TestSSBBackendsAgree differentially tests every SSB query across the
// translator, the handwritten SQL and the interpreted runtime.
func TestSSBBackendsAgree(t *testing.T) {
	sess, rt := testEngines(t)
	nonEmpty := 0
	for _, q := range Queries() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			want, err := RunInterpreted(rt, q)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) > 0 {
				nonEmpty++
			}
			hand, _, err := RunHandwritten(sess.Engine(), q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := RunTranslated(sess, q)
			if err != nil {
				t.Fatal(err)
			}
			// Q1.x: SUM over zero rows is NULL in SQL but 0 in JSONiq; treat
			// those as equivalent empties.
			if isScalarQuery(q.ID) && len(hand) == 1 && len(want) == 1 {
				if hand[0] != want[0] && strings.HasPrefix(hand[0], "n") && want[0] == "d0" {
					hand = want
				}
			}
			if !hand.Equal(want) {
				t.Errorf("handwritten mismatch\nhand: %v\nwant: %v", hand, want)
			}
			if !got.Equal(want) {
				t.Errorf("translated mismatch\ngot:  %v\nwant: %v", got, want)
			}
		})
	}
}

func isScalarQuery(id string) bool { return strings.HasPrefix(id, "q1.") }

// TestSSBSelectivity ensures the generated data actually exercises the
// filters (a query matching nothing would vacuously "agree").
func TestSSBSelectivity(t *testing.T) {
	sess, _ := testEngines(t)
	for _, id := range []string{"q1.1", "q2.1", "q3.1", "q4.1"} {
		q, _ := ByID(id)
		rows, _, err := RunTranslated(sess, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) == 0 {
			t.Errorf("%s returned no rows; generator selectivity broken", id)
		}
		if id == "q1.1" && rows[0] == "d0" {
			t.Errorf("%s revenue is zero", id)
		}
	}
}

// TestSSBJoinsAreHashJoins verifies the optimizer turns the translated
// cross-join-plus-equality pattern into hash equi-joins (otherwise SSB
// would be quadratic and the Fig 11 comparison meaningless).
func TestSSBJoinsAreHashJoins(t *testing.T) {
	sess, _ := testEngines(t)
	q, _ := ByID("q3.1")
	res, err := RunTranslatedPlan(sess, q)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res, "CROSS Join") {
		t.Errorf("plan still contains a cross join:\n%s", res)
	}
	if strings.Count(res, "INNER Join") < 3 {
		t.Errorf("expected at least 3 hash joins:\n%s", res)
	}
}

// RunTranslatedPlan returns the engine plan of the translated query.
func RunTranslatedPlan(sess *snowpark.Session, q Query) (string, error) {
	sql, err := TranslateSQL(sess, q)
	if err != nil {
		return "", err
	}
	return sess.Engine().Explain(sql)
}

func TestGeneratorDeterminismAndDomains(t *testing.T) {
	a := Generate(5, SizesForScaleFactor(0.01))
	b := Generate(5, SizesForScaleFactor(0.01))
	if len(a.Lineorder) != len(b.Lineorder) {
		t.Fatal("non-deterministic sizes")
	}
	for i := range a.Lineorder {
		if a.Lineorder[i].HashKey() != b.Lineorder[i].HashKey() {
			t.Fatal("non-deterministic rows")
		}
	}
	years := map[int64]bool{}
	for _, d := range a.Date {
		years[d.Field("d_year").AsInt()] = true
	}
	for y := int64(1992); y <= 1998; y++ {
		if !years[y] {
			t.Errorf("year %d missing from reduced date dimension", y)
		}
	}
	for _, c := range a.Customer {
		r := c.Field("c_region").AsString()
		found := false
		for _, known := range regions {
			if known == r {
				found = true
			}
		}
		if !found {
			t.Fatalf("unknown region %q", r)
		}
	}
}

func TestSizesForScaleFactor(t *testing.T) {
	s := SizesForScaleFactor(1)
	if s.Lineorders != LineordersPerSF {
		t.Errorf("SF1 lineorders = %d", s.Lineorders)
	}
	tiny := SizesForScaleFactor(0.0001)
	if tiny.Lineorders < 64 || tiny.Customers < 40 {
		t.Errorf("tiny sizes not floored: %+v", tiny)
	}
}

// TestNoStreamAggregates: SSB has no nested queries, so no plan — generated
// or handwritten — carries a row ID, and every aggregate stays on the hash
// table (ssb_exec is the streaming aggregate's control workload).
func TestNoStreamAggregates(t *testing.T) {
	sess, _ := testEngines(t)
	for _, q := range Queries() {
		gen, err := TranslateSQL(sess, q)
		if err != nil {
			t.Fatal(err)
		}
		for _, sql := range []string{gen, q.SQL} {
			plan, err := sess.Engine().Explain(sql)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			if strings.Contains(plan, "Aggregate stream") || !strings.Contains(plan, "Aggregate hash ") {
				t.Errorf("%s: want hash aggregates only:\n%s", q.ID, plan)
			}
		}
	}
}

// TestExchangeCensus: every SSB plan, in both SQL forms, gets one exchange
// — the scan → probe chain below the final aggregate, whose SUMs keep it
// sequential — and none stays sequential by plan. At SF 8 (the ssb_exec
// load) and parallelism 2, EXPLAIN ANALYZE shows where the work fans out:
// q1.x and q2.x probe lineorder's 48 morsels under the exchange; q3.x and
// q4.x build their first join left, so that join's match pass fans out over
// lineorder's morsels instead, and the exchange above it streams the small
// dimension's.
func TestExchangeCensus(t *testing.T) {
	sess, err := Setup(20240611, 8, engine.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	eng := sess.Engine()
	for _, q := range Queries() {
		gen, err := TranslateSQL(sess, q)
		if err != nil {
			t.Fatal(err)
		}
		for i, sql := range []string{gen, q.SQL} {
			plan, err := eng.Explain(sql)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			if n := strings.Count(plan, "Exchange"); n != 1 || strings.Contains(plan, "Exchange sequential") {
				t.Errorf("%s form %d: %d exchanges, want one that may fan out:\n%s", q.ID, i, n, plan)
			}
			_, ps, err := eng.QueryAnalyze(sql)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			want, where := "Exchange workers=2 morsels=48", "Exchange"
			if strings.HasPrefix(q.ID, "q3.") || strings.HasPrefix(q.ID, "q4.") {
				want, where = "build=left rows=", "match[workers=2 morsels=48]"
			}
			found := false
			ps.Walk(func(_ int, n *engine.PlanStats) {
				line := n.Op + " " + n.Detail
				found = found || strings.Contains(line, want) && strings.Contains(line, where)
			})
			if !found {
				t.Errorf("%s form %d: no line with %q and %q\n%s", q.ID, i, want, where, ps.Render())
			}
		}
	}
}

// TestNoDiscardRulesOnSSB pins that neither discard rule fires on SSB, in
// either SQL form: its plans have no FLATTEN and no ordered ARRAY_AGG, so
// the rules leave them — and ssb_exec — exactly as they were.
func TestNoDiscardRulesOnSSB(t *testing.T) {
	sess, err := Setup(20240611, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range Queries() {
		gen, err := TranslateSQL(sess, q)
		if err != nil {
			t.Fatal(err)
		}
		for i, sql := range []string{gen, q.SQL} {
			plan, err := sess.Engine().Explain(sql)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			if n := strings.Count(plan, " from=") + strings.Count(plan, " top1("); n != 0 {
				t.Errorf("%s form %d: discard rules fired %d times:\n%s", q.ID, i, n, plan)
			}
		}
	}
}

// TestJoinBuildSideCensus pins the build side of every SSB join at SF 8 (the
// ssb_exec load): in both SQL forms exactly the first join of q3.x and q4.x
// (customer or supplier ⋈ lineorder) builds its left input, a dimension
// table at most a quarter of lineorder's rows; every other join has a join
// below it on the left, so no row bound, and builds right. serve_mix's cold
// revenue texts (q1.1's shape, lineorder first) build right too.
func TestJoinBuildSideCensus(t *testing.T) {
	sess, err := Setup(20240611, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng := sess.Engine()
	count := func(id, sql string) (left, joins int) {
		t.Helper()
		plan, err := eng.Explain(sql)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		joins = strings.Count(plan, " Join ")
		if sides := strings.Count(plan, " build="); sides != joins {
			t.Errorf("%s: %d build sides for %d joins:\n%s", id, sides, joins, plan)
		}
		return strings.Count(plan, " build=left "), joins
	}
	var total [2]int
	for _, q := range Queries() {
		gen, err := TranslateSQL(sess, q)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		if strings.HasPrefix(q.ID, "q3.") || strings.HasPrefix(q.ID, "q4.") {
			want = 1
		}
		for i, sql := range []string{gen, q.SQL} {
			left, joins := count(q.ID, sql)
			if left != want {
				t.Errorf("%s form %d: %d of %d joins build left, want %d", q.ID, i, left, joins, want)
			}
			total[i] += left
		}
	}
	if total != [2]int{7, 7} {
		t.Errorf("left builds (generated, handwritten) = %v, want [7 7]", total)
	}
	cold := `sum(
  for $l in collection("lineorder")
  for $d in collection("date")
  where $l.lo_orderdate eq $d.d_datekey
  where $d.d_year eq 1994 and $l.lo_discount ge 4 and $l.lo_discount le 6 and $l.lo_quantity lt 30
  return $l.lo_extendedprice * $l.lo_discount
)`
	sql, err := TranslateSQL(sess, Query{ID: "cold", JSONiq: cold})
	if err != nil {
		t.Fatal(err)
	}
	if left, joins := count("cold", sql); left != 0 || joins != 1 {
		t.Errorf("cold revenue text: %d of %d joins build left, want 0 of 1", left, joins)
	}
}
