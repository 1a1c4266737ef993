package engine

import (
	"fmt"
	"testing"
)

// BenchmarkTypedVsVariantScan measures the storage-v2 typed kernels against
// the variant fallback on scan-heavy single-threaded pipelines. The same
// dataset is loaded twice — once with typed shredding (the default) and once
// with WithTypedColumns(false), which keeps every chunk in the v1 variant
// layout — so the delta isolates the encoding + kernel path. Queries are
// chosen so the hot loop is the scan/filter/arithmetic, not the aggregate.
func BenchmarkTypedVsVariantScan(b *testing.B) {
	const rows = 20000
	queries := []struct{ name, sql string }{
		{"filter-count", `SELECT COUNT(*) FROM "bench" WHERE "val" > 3`},
		{"filter-agg", `SELECT "grp", COUNT(*), MIN("val"), MAX("val") FROM "bench" WHERE "val" > 3 GROUP BY "grp"`},
		{"arith-filter", `SELECT COUNT(*) FROM "bench" WHERE "id" % 7 = 0 AND "id" * 2 < 30000`},
		{"colcol-filter", `SELECT COUNT(*) FROM "bench" WHERE "id" > "grp"`},
	}
	for _, mode := range []struct {
		name  string
		typed bool
	}{{"typed", true}, {"variant", false}} {
		for _, q := range queries {
			b.Run(fmt.Sprintf("%s/mode=%s", q.name, mode.name), func(b *testing.B) {
				var extra []Option
				if !mode.typed {
					extra = append(extra, WithTypedColumns(false))
				}
				e := benchEngine(b, 1024, 1, rows, extra...)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Query(q.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
