package engine

import (
	"fmt"
	"os"
	"testing"

	"jsonpark/internal/bench"
	"jsonpark/internal/variant"
)

// benchRecorder collects the microbenchmark timings; set JSQ_BENCH_JSON to a
// path to also write them as a bench.Recorder run file:
//
//	JSQ_BENCH_JSON=/tmp/micro.json go test -bench 'ScanFilterAgg|FlattenReagg' ./internal/engine/
var benchRecorder = bench.NewRecorder("engine-microbench")

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("JSQ_BENCH_JSON"); path != "" && len(benchRecorder.Records()) > 0 {
		if err := benchRecorder.WriteFile(path); err != nil {
			fmt.Fprintf(os.Stderr, "bench recorder: %v\n", err)
		}
	}
	os.Exit(code)
}

// benchBatchSizes spans the regimes of interest: 1 reproduces row-at-a-time
// dispatch overhead, 64/1024 the cache-friendly sweet spot, 4096 the point
// where vectors outgrow cache.
var benchBatchSizes = []int{1, 64, 1024, 4096}

func benchEngine(b *testing.B, batchSize, parallelism, rows int, extra ...Option) *Engine {
	b.Helper()
	opts := append([]Option{WithBatchSize(batchSize), WithParallelism(parallelism)}, extra...)
	e := New(opts...)
	tab, err := e.Catalog().CreateTable("bench", []string{"id", "grp", "val", "items"})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		doc := fmt.Sprintf(`{"id": %d, "grp": %d, "val": %g, "items": [%d, %d, %d, %d]}`,
			i, i%13, float64(i%97)/7.0, i, i+1, i+2, i+3)
		if err := tab.AppendObject(variant.MustParseJSON(doc)); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

func runQueryBench(b *testing.B, name, sql string, rows int) {
	for _, bs := range benchBatchSizes {
		bs := bs
		b.Run(fmt.Sprintf("batch=%d", bs), func(b *testing.B) {
			e := benchEngine(b, bs, 1, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(sql); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			benchRecorder.Add(bench.Record{
				Experiment: name,
				Query:      sql,
				System:     fmt.Sprintf("batch=%d", bs),
				Scale:      float64(rows),
				MeanMicros: b.Elapsed().Microseconds() / int64(b.N),
				Runs:       b.N,
			})
		})
	}
}

// BenchmarkScanFilterAgg measures the scan → filter → grouped-aggregate
// pipeline across batch sizes.
func BenchmarkScanFilterAgg(b *testing.B) {
	runQueryBench(b, "scan-filter-agg",
		`SELECT "grp", COUNT(*), MIN("val"), MAX("val") FROM "bench" WHERE "val" > 3 GROUP BY "grp"`,
		20000)
}

// BenchmarkFlattenReagg measures the flatten → re-aggregate shape at the
// core of the paper's nested-query translation (§IV-B).
func BenchmarkFlattenReagg(b *testing.B) {
	runQueryBench(b, "flatten-reagg",
		`SELECT "id", COUNT(*) FROM (SELECT "id", "f".VALUE AS "v" FROM (SELECT * FROM "bench"), LATERAL FLATTEN(INPUT => "items") AS "f") GROUP BY "id"`,
		5000)
}
