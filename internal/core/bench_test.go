package core_test

import (
	"testing"

	"jsonpark/internal/adl"
	"jsonpark/internal/core"
	"jsonpark/internal/jsoniq"
)

// BenchmarkTranslate times translating each parsed and rewritten ADL query
// into its DataFrame under the query's strategy: renaming, live-column
// analysis and the DataFrame calls, without parsing or rendering the SQL.
func BenchmarkTranslate(b *testing.B) {
	sess, _, err := adl.Setup(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range adl.Queries() {
		expr := jsoniq.Rewrite(jsoniq.MustParse(q.JSONiq))
		b.Run(q.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.TranslateExpr(sess, expr, core.Options{Strategy: q.Strategy}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
