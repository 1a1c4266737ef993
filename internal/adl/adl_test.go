package adl

import (
	"jsonpark/internal/jsoniq"
	"strings"
	"testing"

	"jsonpark/internal/core"
	"jsonpark/internal/engine"
	"jsonpark/internal/hepdata"
	"jsonpark/internal/iterplan"
	"jsonpark/internal/runtime"
	"jsonpark/internal/snowpark"
	"jsonpark/internal/variant"
)

const testEvents = 600

func testSetup(t *testing.T) (*snowpark.Session, *runtime.Engine) {
	t.Helper()
	eng := engine.New()
	docs, err := hepdata.Load(eng, "adl", 42, testEvents)
	if err != nil {
		t.Fatal(err)
	}
	rt := runtime.New(runtime.ProfileDefault)
	rt.LoadCollection("adl", docs)
	return snowpark.NewSession(eng), rt
}

// TestAllBackendsAgree is the central differential test: for every ADL
// query, the automatic translation (both elimination strategies), the
// handwritten SQL reference and the interpreted runtime must produce the
// same histogram on the same data.
func TestAllBackendsAgree(t *testing.T) {
	sess, rt := testSetup(t)
	for _, q := range Queries() {
		q := q
		t.Run(q.ID, func(t *testing.T) {
			want, err := RunInterpreted(rt, q)
			if err != nil {
				t.Fatal(err)
			}
			if want.TotalCount() == 0 {
				t.Fatalf("query %s matches no events at all; test data too sparse", q.ID)
			}
			hand, _, err := RunHandwritten(sess.Engine(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !hand.Equal(want) {
				t.Errorf("handwritten mismatch\nhand: %v\nwant: %v", hand, want)
			}
			for _, strat := range []core.Strategy{core.StrategyKeepFlag, core.StrategyJoin} {
				strat := strat
				got, _, err := RunTranslated(sess, q, &strat)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Errorf("translated (%v) mismatch\ngot:  %v\nwant: %v", strat, got, want)
				}
			}
		})
	}
}

func TestInterpretedProfilesAgreeOnADL(t *testing.T) {
	_, rt := testSetup(t)
	docs := hepdata.Events(42, 120)
	rtSpark := runtime.New(runtime.ProfileRumbleSpark)
	rtSpark.LoadCollection("adl", docs)
	rtAst := runtime.New(runtime.ProfileAsterix)
	rtAst.LoadCollection("adl", docs)
	rtDef := runtime.New(runtime.ProfileDefault)
	rtDef.LoadCollection("adl", docs)
	_ = rt
	for _, q := range Queries() {
		want, err := RunInterpreted(rtDef, q)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		for name, e := range map[string]*runtime.Engine{"spark": rtSpark, "asterix": rtAst} {
			got, err := RunInterpreted(e, q)
			if err != nil {
				t.Fatalf("%s/%s: %v", q.ID, name, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s/%s: %v != %v", q.ID, name, got, want)
			}
		}
	}
}

// TestScannedBytesQ6JoinRescans checks the §V-E observation: the JOIN-based
// translation of Q6 roughly doubles the scanned bytes versus handwritten.
func TestScannedBytesQ6JoinRescans(t *testing.T) {
	sess, _ := testSetup(t)
	q, _ := ByID("q6")
	join := core.StrategyJoin
	_, tRes, err := RunTranslated(sess, q, &join)
	if err != nil {
		t.Fatal(err)
	}
	_, hRes, err := RunHandwritten(sess.Engine(), q)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(tRes.Metrics.BytesScanned) / float64(hRes.Metrics.BytesScanned)
	if ratio < 1.3 {
		t.Errorf("JOIN strategy should scan noticeably more than handwritten, ratio = %.2f", ratio)
	}
	if ratio > 4 {
		t.Errorf("JOIN strategy scan ratio implausibly high: %.2f", ratio)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := hepdata.Events(7, 50)
	b := hepdata.Events(7, 50)
	for i := range a {
		if !variant.Equal(a[i], b[i]) {
			t.Fatalf("event %d differs between runs", i)
		}
	}
	c := hepdata.Events(8, 50)
	same := 0
	for i := range a {
		if variant.Equal(a[i], c[i]) {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical data")
	}
}

func TestGeneratorStructure(t *testing.T) {
	docs := hepdata.Events(1, 500)
	emptyMuon, multiJet := 0, 0
	for _, d := range docs {
		if d.Field("EVENT").Kind() != variant.KindInt {
			t.Fatal("EVENT must be an integer")
		}
		if d.Field("MET").Field("pt").Kind() != variant.KindFloat {
			t.Fatal("MET.pt must be a double")
		}
		if d.Field("Muon").Len() == 0 {
			emptyMuon++
		}
		if d.Field("Jet").Len() >= 3 {
			multiJet++
		}
		for _, m := range d.Field("Muon").AsArray() {
			ch := m.Field("charge").AsInt()
			if ch != 1 && ch != -1 {
				t.Fatalf("bad charge %d", ch)
			}
		}
	}
	if emptyMuon == 0 {
		t.Error("generator must produce events with empty Muon arrays (exercises §IV-C)")
	}
	if multiJet == 0 {
		t.Error("generator must produce events with >= 3 jets (exercises Q6)")
	}
}

func TestEventsForScaleFactor(t *testing.T) {
	if hepdata.EventsForScaleFactor(1) != hepdata.EventsPerSF {
		t.Error("SF1 wrong")
	}
	if got := hepdata.EventsForScaleFactor(0.0000001); got != 8 {
		t.Errorf("tiny SF = %d, want floor 8", got)
	}
	if got := hepdata.EventsForScaleFactor(0.5); got != hepdata.EventsPerSF/2 {
		t.Errorf("SF0.5 = %d", got)
	}
}

func TestQueryLookup(t *testing.T) {
	if len(Queries()) != 8 {
		t.Fatal("expected 8 queries")
	}
	q, ok := ByID("q6")
	if !ok || q.Strategy != core.StrategyJoin {
		t.Error("q6 must default to the JOIN strategy (§V-A)")
	}
	if _, ok := ByID("q99"); ok {
		t.Error("unknown id should not resolve")
	}
}

func TestStrategyAutoSelectionOnADLQueries(t *testing.T) {
	// The automatic optimizer must pick JOIN for q4–q7 and KEEP for q8,
	// matching the per-query winners measured in the ablation.
	want := map[string]core.Strategy{
		"q4": core.StrategyJoin, "q5": core.StrategyJoin,
		"q6": core.StrategyJoin, "q7": core.StrategyJoin,
		"q8": core.StrategyKeepFlag,
	}
	for id, expect := range want {
		q, _ := ByID(id)
		expr, err := jsoniq.Parse(q.JSONiq)
		if err != nil {
			t.Fatal(err)
		}
		if got := core.ChooseStrategy(core.StrategyAuto, jsoniq.Rewrite(expr)); got != expect {
			t.Errorf("%s auto strategy = %v, want %v", id, got, expect)
		}
	}
}

func TestStrategyAutoResultsCorrect(t *testing.T) {
	sess, rt := testSetup(t)
	auto := core.StrategyAuto
	for _, id := range []string{"q5", "q8"} {
		q, _ := ByID(id)
		want, err := RunInterpreted(rt, q)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := RunTranslated(sess, q, &auto)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s auto strategy mismatch:\ngot %v\nwant %v", id, got, want)
		}
	}
}

// TestBackendsAgreeAcrossSeeds re-runs the differential check on several
// independently generated datasets, catching data-shape-dependent bugs
// (e.g. partitions where every array is empty, or no event passes a
// filter).
func TestBackendsAgreeAcrossSeeds(t *testing.T) {
	for _, seed := range []int64{1, 99, 2026} {
		eng := engine.New()
		docs, err := hepdata.Load(eng, "adl", seed, 250)
		if err != nil {
			t.Fatal(err)
		}
		rt := runtime.New(runtime.ProfileDefault)
		rt.LoadCollection("adl", docs)
		sess := snowpark.NewSession(eng)
		for _, id := range []string{"q4", "q5", "q7", "q8"} {
			q, _ := ByID(id)
			want, err := RunInterpreted(rt, q)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, id, err)
			}
			for _, strat := range []core.Strategy{core.StrategyKeepFlag, core.StrategyJoin} {
				strat := strat
				got, _, err := RunTranslated(sess, q, &strat)
				if err != nil {
					t.Fatalf("seed %d %s (%v): %v", seed, id, strat, err)
				}
				if !got.Equal(want) {
					t.Errorf("seed %d %s (%v): %v != %v", seed, id, strat, got, want)
				}
			}
		}
	}
}

// TestStreamAggregateCensus pins how many aggregates of each ADL plan the
// physical pass streams — the row-ID re-aggregates of the nested queries; the
// final `group by bin` always hashes, and of the handwritten texts only q7
// numbers its jets with SEQ8 — so a derivation that silently stops firing
// fails here rather than in a benchmark.
func TestStreamAggregateCensus(t *testing.T) {
	sess, _ := testSetup(t)
	want := map[string][2]int{ // generated, handwritten
		"q1": {0, 0}, "q2": {0, 0}, "q3": {0, 0},
		"q4": {1, 0}, "q5": {1, 0}, "q6": {1, 0}, "q7": {3, 1}, "q8": {4, 0},
	}
	for _, q := range Queries() {
		res, err := core.Translate(sess, q.JSONiq, core.Options{Strategy: q.Strategy})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		var got [2]int
		for i, sql := range []string{res.SQL, q.SQL} {
			plan, err := sess.Engine().Explain(sql)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			got[i] = strings.Count(plan, "Aggregate stream key=")
			if hash := strings.Count(plan, "Aggregate hash "); got[i]+hash != strings.Count(plan, "Aggregate ") || hash == 0 {
				t.Errorf("%s: %d stream + %d hash aggregates do not add up:\n%s", q.ID, got[i], hash, plan)
			}
		}
		if got != want[q.ID] {
			t.Errorf("%s: streaming aggregates (generated, handwritten) = %v, want %v", q.ID, got, want[q.ID])
		}
	}
}

// TestDiscardRuleCensus pins how often the two discard rules fire on each
// ADL plan, per form — keep-flag, join, handwritten — as {FLATTEN lower
// bounds, top-1 aggregates}, counted off EXPLAIN's markers. A bound needs a
// plain `a < b` conjunct directly above its FLATTEN, which keep-flag's
// OR-guarded filters are not; a top-1 needs an ordered ARRAY_AGG read only
// at index 0: q6's best trijet, q8's best pair and other lepton.
func TestDiscardRuleCensus(t *testing.T) {
	sess, _ := testSetup(t)
	want := map[string][3][2]int{
		"q1": {}, "q2": {}, "q3": {}, "q4": {}, "q7": {},
		"q5": {{0, 0}, {1, 0}, {1, 0}},
		"q6": {{0, 1}, {2, 1}, {2, 1}},
		"q8": {{0, 2}, {2, 3}, {1, 2}},
	}
	for _, q := range Queries() {
		var sqls []string
		for _, s := range []core.Strategy{core.StrategyKeepFlag, core.StrategyJoin} {
			res, err := core.Translate(sess, q.JSONiq, core.Options{Strategy: s})
			if err != nil {
				t.Fatalf("%s %s: %v", q.ID, s, err)
			}
			sqls = append(sqls, res.SQL)
		}
		var got [3][2]int
		for i, sql := range append(sqls, q.SQL) {
			plan, err := sess.Engine().Explain(sql)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			got[i] = [2]int{strings.Count(plan, " from="), strings.Count(plan, " top1(")}
		}
		if got != want[q.ID] {
			t.Errorf("%s: {bounds, top-1s} (keep-flag, join, handwritten) = %v, want %v", q.ID, got, want[q.ID])
		}
	}
}

// TestExchangeCensus pins how many segments of each ADL plan the physical
// pass wraps in an exchange that may fan out: every nested query's row-ID →
// FLATTEN → re-aggregate chain (q2/q3 flatten without a row ID), none for
// q1's plain scan, and both FLATTEN branches of handwritten q8's UNION ALL.
// None may stay sequential: every row ID of these plans is only carried.
func TestExchangeCensus(t *testing.T) {
	sess, _ := testSetup(t)
	want := map[string][2]int{ // generated, handwritten
		"q1": {0, 0}, "q2": {1, 1}, "q3": {1, 1},
		"q4": {1, 1}, "q5": {1, 1}, "q6": {1, 1}, "q7": {1, 1}, "q8": {1, 2},
	}
	for _, q := range Queries() {
		res, err := core.Translate(sess, q.JSONiq, core.Options{Strategy: q.Strategy})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		var got [2]int
		for i, sql := range []string{res.SQL, q.SQL} {
			plan, err := sess.Engine().Explain(sql)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			got[i] = strings.Count(plan, "Exchange")
			if strings.Contains(plan, "Exchange sequential") {
				t.Errorf("%s: a segment stays sequential:\n%s", q.ID, plan)
			}
		}
		if got != want[q.ID] {
			t.Errorf("%s: exchanges (generated, handwritten) = %v, want %v", q.ID, got, want[q.ID])
		}
	}
}

// TestJoinProbeRowIDStaysOnDriver: the join strategy rejoins each nested
// FLWOR's re-aggregate to its outer rows on the row ID, so a join of
// generated q4–q8 under it whose left input is a scan pipeline reads a row
// ID of that segment — a counter each exchange worker would restart per
// morsel — and keeps its probe on the driver, and EXPLAIN ANALYZE says why
// on its line; the others rejoin the output of a join below them, no scan
// pipeline. (plans.golden pins that no probe joins a segment.)
func TestJoinProbeRowIDStaysOnDriver(t *testing.T) {
	sess, _ := testSetup(t)
	for _, q := range Queries()[3:] {
		res, err := core.Translate(sess, q.JSONiq, core.Options{Strategy: core.StrategyJoin})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		_, ps, err := sess.Engine().QueryAnalyze(res.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		pinned := 0
		ps.Walk(func(_ int, n *engine.PlanStats) {
			if strings.HasSuffix(n.Op, " Join") && strings.HasSuffix(n.Detail, " sequential: row id in join key") {
				pinned++
			}
		})
		if pinned == 0 {
			t.Errorf("%s: no join keeps its probe on the driver for the row ID\n%s", q.ID, ps.Render())
		}
	}
}

func TestTable2ShapeMatchesPaper(t *testing.T) {
	// The paper's Table II shape: totals grow from Q1 to Q8 overall, Q6 and
	// Q8 dominate, and FLWOR iterators are a small fraction of the total.
	totals := map[string]int{}
	for _, q := range Queries() {
		expr, err := jsoniq.Parse(q.JSONiq)
		if err != nil {
			t.Fatal(err)
		}
		it, err := iterplan.Build(jsoniq.Rewrite(expr))
		if err != nil {
			t.Fatal(err)
		}
		c := iterplan.Census(it)
		totals[q.ID] = c.Total()
		if c.FLWOR*2 >= c.Total() {
			t.Errorf("%s: FLWOR iterators (%d) should be a minority of %d", q.ID, c.FLWOR, c.Total())
		}
	}
	if totals["q1"] >= totals["q5"] || totals["q5"] >= totals["q6"] {
		t.Errorf("totals not growing: %v", totals)
	}
	if totals["q6"] < 2*totals["q4"] || totals["q8"] < 2*totals["q4"] {
		t.Errorf("q6/q8 should dominate: %v", totals)
	}
}

// TestJoinBuildSideCensus pins that no ADL join builds its left input at the
// adl_exec load (8 000 events). The one join, generated q6's row-ID
// self-join, is LEFT OUTER, and its right input, a re-aggregate, has no row
// bound; the handwritten texts and serve_mix's cold MET-histogram texts
// have no join.
func TestJoinBuildSideCensus(t *testing.T) {
	sess, _, err := Setup(42, 8000)
	if err != nil {
		t.Fatal(err)
	}
	cold := `for $e in collection("adl")
where $e.MET.pt gt 12.5
group by $bin := floor($e.MET.pt div 5.0) * 5.0
order by $bin
return {"bin": $bin, "count": count($e)}`
	joins := 0
	for _, q := range append(Queries(), Query{ID: "cold", JSONiq: cold}) {
		res, err := core.Translate(sess, q.JSONiq, core.Options{Strategy: q.Strategy})
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		for _, sql := range []string{res.SQL, q.SQL} {
			if sql == "" {
				continue
			}
			plan, err := sess.Engine().Explain(sql)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			joins += strings.Count(plan, " Join ")
			if strings.Count(plan, " build=right ") != strings.Count(plan, " Join ") {
				t.Errorf("%s: a join does not build right:\n%s", q.ID, plan)
			}
		}
	}
	if joins != 1 {
		t.Errorf("%d joins across the ADL plans, want 1 (generated q6)", joins)
	}
}
