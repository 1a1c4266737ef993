package snowpark_test

import (
	"testing"

	"jsonpark/internal/adl"
	"jsonpark/internal/core"
	"jsonpark/internal/jsoniq"
)

// BenchmarkRender times rendering each translated ADL query's DataFrame to
// its SQL text.
func BenchmarkRender(b *testing.B) {
	sess, _, err := adl.Setup(1, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range adl.Queries() {
		df, err := core.TranslateExpr(sess, jsoniq.Rewrite(jsoniq.MustParse(q.JSONiq)), core.Options{Strategy: q.Strategy})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(q.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = df.SQL()
			}
		})
	}
}
