package engine_test

import (
	"testing"

	"jsonpark/internal/adl"
	"jsonpark/internal/core"
)

// BenchmarkPrepare times compiling each ADL query's SQL on an empty
// collection with the plan cache off — SQL parse, plan, optimize,
// physicalize and bind — for the generated SQL (under the query's
// strategy) and for the handwritten SQL.
func BenchmarkPrepare(b *testing.B) {
	sess, _, err := adl.Setup(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	eng := sess.Engine()
	for _, q := range adl.Queries() {
		res, err := core.Translate(sess, q.JSONiq, core.Options{Strategy: q.Strategy})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct{ path, sql string }{{"generated", res.SQL}, {"handwritten", q.SQL}} {
			b.Run(q.ID+"/"+c.path, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := eng.Prepare(c.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
