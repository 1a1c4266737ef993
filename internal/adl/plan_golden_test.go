package adl

import (
	"flag"
	"testing"

	"jsonpark/internal/core"
	"jsonpark/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden from the current optimizer")

// TestPlanGolden pins the optimized physical plan (EXPLAIN) of every ADL
// query, translated under keep-flag and under join and handwritten, so a
// rewrite that changes a plan but not its rows fails here.
func TestPlanGolden(t *testing.T) {
	sess, _ := testSetup(t)
	var b []byte
	explain := func(name, sql string) {
		plan, err := sess.Engine().Explain(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b = append(b, "== "+name+"\n"+plan...)
	}
	for _, q := range Queries() {
		for _, s := range []core.Strategy{core.StrategyKeepFlag, core.StrategyJoin} {
			res, err := core.Translate(sess, q.JSONiq, core.Options{Strategy: s})
			if err != nil {
				t.Fatalf("%s %s: %v", q.ID, s, err)
			}
			explain(q.ID+" "+s.String(), res.SQL)
		}
		explain(q.ID+" handwritten", q.SQL)
	}
	testutil.Golden(t, "testdata/plans.golden", string(b), *update)
}
