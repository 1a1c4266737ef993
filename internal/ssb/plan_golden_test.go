package ssb

import (
	"flag"
	"testing"

	"jsonpark/internal/testutil"
)

var update = flag.Bool("update", false, "rewrite testdata/plans.golden from the current optimizer")

// TestPlanGolden pins the optimized physical plan (EXPLAIN) of every SSB
// query, translated and handwritten, so a rewrite that changes a plan but
// not its rows fails here.
func TestPlanGolden(t *testing.T) {
	sess, _ := testEngines(t)
	var b []byte
	explain := func(name, sql string) {
		plan, err := sess.Engine().Explain(sql)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b = append(b, "== "+name+"\n"+plan...)
	}
	for _, q := range Queries() {
		gen, err := TranslateSQL(sess, q)
		if err != nil {
			t.Fatal(err)
		}
		explain(q.ID+" translated", gen)
		explain(q.ID+" handwritten", q.SQL)
	}
	testutil.Golden(t, "testdata/plans.golden", string(b), *update)
}
