// Benchmarks regenerating the paper's evaluation (§V), one benchmark per
// table or figure: DESIGN.md §4 indexes them (TestExperimentIndex keeps the
// index and this file in step) and EXPERIMENTS.md records measured shapes.
// Sizes are laptop-scale. Regenerate every figure with
//
//	go test -run '^$' -bench . .
//
// or one with -bench Fig10; -benchtime 1x single-iterates each data point.
package jsonpark_test

import (
	"fmt"
	"testing"
	"time"

	"jsonpark/internal/adl"
	"jsonpark/internal/core"
	"jsonpark/internal/engine"
	"jsonpark/internal/iterplan"
	"jsonpark/internal/jsoniq"
	"jsonpark/internal/runtime"
	"jsonpark/internal/snowpark"
	"jsonpark/internal/ssb"
	"jsonpark/internal/variant"
)

const (
	adlSeed     = 42
	ssbSeed     = 7
	benchEvents = 4000 // ADL events for the fixed-size benchmarks

	// cutoff is the per-run time limit of Fig 9 and Fig 10 (the paper's
	// 10-minute cap, re-based). A run over it skips its system and query,
	// and in Fig 10 every larger size too; only the interpreted baselines
	// come near it.
	cutoff = time.Second
)

// setupADL loads events into a fresh engine with the query cache off, so
// every iteration compiles; opts apply after that.
func setupADL(b *testing.B, events int, opts ...engine.Option) (*snowpark.Session, []variant.Value) {
	b.Helper()
	sess, docs, err := adl.Setup(adlSeed, events, opts...)
	if err != nil {
		b.Fatal(err)
	}
	return sess, docs
}

func setupSSB(b *testing.B, sf float64) *snowpark.Session {
	b.Helper()
	sess, err := ssb.Setup(ssbSeed, sf)
	if err != nil {
		b.Fatal(err)
	}
	return sess
}

func translate(b *testing.B, sess *snowpark.Session, jsoniqText string, s core.Strategy) string {
	b.Helper()
	res, err := core.Translate(sess, jsoniqText, core.Options{Strategy: s})
	if err != nil {
		b.Fatal(err)
	}
	return res.SQL
}

// variantSQL is one SQL text of a query: the generated translation or the
// handwritten reference.
type variantSQL struct{ name, sql string }

func ssbVariants(b *testing.B, sess *snowpark.Session, q ssb.Query) []variantSQL {
	sql, err := ssb.TranslateSQL(sess, q)
	if err != nil {
		b.Fatal(err)
	}
	return []variantSQL{{"generated", sql}, {"handwritten", q.SQL}}
}

// benchQuery times compile + execute of sql per iteration.
func benchQuery(b *testing.B, eng *engine.Engine, sql string) {
	for i := 0; i < b.N; i++ {
		if _, err := eng.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// system is one of the four evaluated systems of Fig 9 and Fig 10.
type system struct {
	name string
	run  func(q adl.Query) error
}

// adlSystems builds the four systems over one loaded dataset: the two
// interpreted baselines over docs, the generated and handwritten SQL over
// sess.
func adlSystems(sess *snowpark.Session, docs []variant.Value) []system {
	rtSpark := runtime.New(runtime.ProfileRumbleSpark)
	rtSpark.LoadCollection("adl", docs)
	rtAst := runtime.New(runtime.ProfileAsterix)
	rtAst.LoadCollection("adl", docs)
	return []system{
		{"rumbledb-spark", func(q adl.Query) error { _, err := adl.RunInterpreted(rtSpark, q); return err }},
		{"asterixdb", func(q adl.Query) error { _, err := adl.RunInterpreted(rtAst, q); return err }},
		{"generated", func(q adl.Query) error { _, _, err := adl.RunTranslated(sess, q, nil); return err }},
		{"handwritten", func(q adl.Query) error { _, _, err := adl.RunHandwritten(sess.Engine(), q); return err }},
	}
}

// runWithCutoff times run per iteration and skips the benchmark as cutoff
// once one run exceeds the cutoff, after calling onCutoff.
func runWithCutoff(b *testing.B, run func() error, onCutoff func()) {
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := run(); err != nil {
			b.Fatal(err)
		}
		if d := time.Since(start); d > cutoff {
			onCutoff()
			b.Skipf("cutoff: one run took %s > %s", d.Round(time.Millisecond), cutoff)
		}
	}
}

// BenchmarkTable2IteratorCensus regenerates Table II: the iterator count of
// each ADL query, reported as metrics.
func BenchmarkTable2IteratorCensus(b *testing.B) {
	for _, q := range adl.Queries() {
		b.Run(q.ID, func(b *testing.B) {
			var c iterplan.CensusResult
			for i := 0; i < b.N; i++ {
				expr, err := jsoniq.Parse(q.JSONiq)
				if err != nil {
					b.Fatal(err)
				}
				it, err := iterplan.Build(jsoniq.Rewrite(expr))
				if err != nil {
					b.Fatal(err)
				}
				c = iterplan.Census(it)
			}
			b.ReportMetric(float64(c.FLWOR), "flwor-iters")
			b.ReportMetric(float64(c.Other), "other-iters")
			b.ReportMetric(float64(c.Total()), "total-iters")
		})
	}
}

// BenchmarkFig6TranslationTime measures JSONiq→SQL translation per query.
func BenchmarkFig6TranslationTime(b *testing.B) {
	sess, _ := setupADL(b, 16)
	for _, q := range adl.Queries() {
		b.Run(q.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				translate(b, sess, q.JSONiq, q.Strategy)
			}
		})
	}
}

// BenchmarkFig7CompileTime measures engine compilation of the generated and
// handwritten SQL. Its cached rows prepare the generated SQL on an engine
// with the query cache on, so they time a cache hit: what a repeated query
// pays instead of compiling. Every row prepares once untimed first, which
// fills that cache.
func BenchmarkFig7CompileTime(b *testing.B) {
	sess, _ := setupADL(b, 16)
	cached, _ := setupADL(b, 16, engine.WithPlanCacheSize(0))
	for _, q := range adl.Queries() {
		gen := translate(b, sess, q.JSONiq, q.Strategy)
		for _, v := range []struct {
			name, sql string
			eng       *engine.Engine
		}{{"generated", gen, sess.Engine()}, {"handwritten", q.SQL, sess.Engine()}, {"cached", gen, cached.Engine()}} {
			b.Run(q.ID+"/"+v.name, func(b *testing.B) {
				if _, err := v.eng.Prepare(v.sql); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := v.eng.Prepare(v.sql); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig8ExecutionTime measures the generated vs handwritten SQL on
// loaded data: ns/op includes compilation, exec-ns/op is execution alone
// (Result.Metrics.ExecTime), the paper's Fig 8 quantity.
func BenchmarkFig8ExecutionTime(b *testing.B) {
	sess, _ := setupADL(b, benchEvents)
	for _, q := range adl.Queries() {
		for _, v := range []variantSQL{{"generated", translate(b, sess, q.JSONiq, q.Strategy)}, {"handwritten", q.SQL}} {
			b.Run(q.ID+"/"+v.name, func(b *testing.B) {
				var exec time.Duration
				for i := 0; i < b.N; i++ {
					res, err := sess.Engine().Query(v.sql)
					if err != nil {
						b.Fatal(err)
					}
					exec += res.Metrics.ExecTime
				}
				b.ReportMetric(float64(exec.Nanoseconds())/float64(b.N), "exec-ns/op")
			})
		}
	}
}

// BenchmarkFig9EndToEnd compares the four systems per query end to end
// (smaller data: the interpreted baselines are orders of magnitude slower).
func BenchmarkFig9EndToEnd(b *testing.B) {
	sess, docs := setupADL(b, 1000)
	systems := adlSystems(sess, docs)
	for _, q := range adl.Queries() {
		for _, sys := range systems {
			b.Run(q.ID+"/"+sys.name, func(b *testing.B) {
				runWithCutoff(b, func() error { return sys.run(q) }, func() {})
			})
		}
	}
}

// BenchmarkScannedBytes reports the §V-E measurement as metrics: bytes
// scanned by the generated vs handwritten queries.
func BenchmarkScannedBytes(b *testing.B) {
	sess, _ := setupADL(b, benchEvents)
	for _, q := range adl.Queries() {
		b.Run(q.ID, func(b *testing.B) {
			var gen, hand int64
			for i := 0; i < b.N; i++ {
				_, g, err := adl.RunTranslated(sess, q, nil)
				if err != nil {
					b.Fatal(err)
				}
				_, h, err := adl.RunHandwritten(sess.Engine(), q)
				if err != nil {
					b.Fatal(err)
				}
				gen, hand = g.Metrics.BytesScanned, h.Metrics.BytesScanned
			}
			b.ReportMetric(float64(gen), "generated-bytes")
			b.ReportMetric(float64(hand), "handwritten-bytes")
			b.ReportMetric(float64(gen)/float64(hand), "ratio")
		})
	}
}

// BenchmarkFig10Scalability sweeps dataset sizes for every query and all
// four systems. A system that exceeds the cutoff on a query is skipped at
// every larger size, as cutoff.
func BenchmarkFig10Scalability(b *testing.B) {
	dead := map[string]bool{} // query/system pairs past the cutoff
	for _, events := range []int{500, 2000, 8000} {
		sess, docs := setupADL(b, events)
		systems := adlSystems(sess, docs)
		for _, q := range adl.Queries() {
			for _, sys := range systems {
				key := q.ID + "/" + sys.name
				b.Run(fmt.Sprintf("%s/events=%d", key, events), func(b *testing.B) {
					if dead[key] {
						b.Skip("cutoff at a smaller size")
					}
					runWithCutoff(b, func() error { return sys.run(q) }, func() { dead[key] = true })
				})
			}
		}
	}
}

// BenchmarkFig11aSSB measures compile + execute of all thirteen SSB
// queries, generated vs handwritten, at one scale factor.
func BenchmarkFig11aSSB(b *testing.B) {
	sess := setupSSB(b, 1)
	for _, q := range ssb.Queries() {
		for _, v := range ssbVariants(b, sess, q) {
			b.Run(q.ID+"/"+v.name, func(b *testing.B) { benchQuery(b, sess.Engine(), v.sql) })
		}
	}
}

// BenchmarkFig11bSSBScaling sweeps scale factors for the first query of
// each flight.
func BenchmarkFig11bSSBScaling(b *testing.B) {
	for _, sf := range []float64{0.5, 1, 2} {
		sess := setupSSB(b, sf)
		for _, id := range ssb.Fig11bQueries {
			q, _ := ssb.ByID(id)
			for _, v := range ssbVariants(b, sess, q) {
				b.Run(fmt.Sprintf("%s/%s/sf=%g", id, v.name, sf), func(b *testing.B) { benchQuery(b, sess.Engine(), v.sql) })
			}
		}
	}
}

// BenchmarkAblationElimination compares the nested-query strategies
// (§IV-C) on the ADL queries that contain nested queries: KEEP-flag, JOIN,
// and the StrategyAuto chooser, named after the strategy it picks. Each
// row reports the bytes its plan scans.
func BenchmarkAblationElimination(b *testing.B) {
	sess, _ := setupADL(b, benchEvents)
	for _, id := range []string{"q4", "q5", "q6", "q7", "q8"} {
		q, _ := adl.ByID(id)
		expr, err := jsoniq.Parse(q.JSONiq)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range []core.Strategy{core.StrategyKeepFlag, core.StrategyJoin, core.StrategyAuto} {
			name := s.String()
			if s == core.StrategyAuto {
				name += "=" + core.ChooseStrategy(s, jsoniq.Rewrite(expr)).String()
			}
			sql := translate(b, sess, q.JSONiq, s)
			b.Run(id+"/"+name, func(b *testing.B) {
				var scanned int64
				for i := 0; i < b.N; i++ {
					res, err := sess.Engine().Query(sql)
					if err != nil {
						b.Fatal(err)
					}
					scanned = res.Metrics.BytesScanned
				}
				b.ReportMetric(float64(scanned), "scanned-bytes")
			})
		}
	}
}
