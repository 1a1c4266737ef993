package engine

import (
	"fmt"
	"strings"
	"testing"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/sqlparse"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

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

func runQueryBench(b *testing.B, sql string, rows int) {
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
		})
	}
}

// BenchmarkScanFilterAgg measures the scan → filter → grouped-aggregate
// pipeline across batch sizes.
func BenchmarkScanFilterAgg(b *testing.B) {
	runQueryBench(b,
		`SELECT "grp", COUNT(*), MIN("val"), MAX("val") FROM "bench" WHERE "val" > 3 GROUP BY "grp"`,
		20000)
}

// BenchmarkFlattenReagg measures the flatten → re-aggregate shape at the
// core of the paper's nested-query translation (§IV-B).
func BenchmarkFlattenReagg(b *testing.B) {
	runQueryBench(b,
		`SELECT "id", COUNT(*) FROM (SELECT "id", "f".VALUE AS "v" FROM (SELECT * FROM "bench"), LATERAL FLATTEN(INPUT => "items") AS "f") GROUP BY "id"`,
		5000)
}

// BenchmarkReaggClustered measures the re-aggregate alone — GROUP BY a
// clustered row ID, four rows a group, as every nested-query translation
// ends — on each aggregate algorithm. The hash path is reachable on a
// clustered key only by building the node by hand, as here, or through
// Engine.forceHashAgg.
func BenchmarkReaggClustered(b *testing.B) {
	const groups = 5000
	batches := clusteredBatches(groups, 4)
	for _, mode := range []string{"hash", "stream"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				it := clusteredReagg(b, mode == "stream", batches)
				b.StartTimer()
				if n := drainCount(b, it); n != groups {
					b.Fatalf("rows = %d", n)
				}
			}
		})
	}
}

// jetBatch builds one 1 024-row batch shaped like ADL q6/q7's inner
// pipelines: an array of three jets, three 1-based indices into it, and one
// jet and one muon object per row.
func jetBatch(rows int) (*Schema, *vector.Batch) {
	particle := func(i, k int) variant.Value {
		return variant.ObjectFromPairs(
			"pt", variant.Float(20+float64((i*7+k*13)%60)), "eta", variant.Float(float64((i+k)%50)/10-2.5),
			"phi", variant.Float(float64((i*3+k)%63)/10-3.1), "mass", variant.Float(float64(k+1)*1.5),
			"btag", variant.Float(float64((i+k)%10)/10))
	}
	cols := make([][]variant.Value, 6)
	for c := range cols {
		cols[c] = make([]variant.Value, rows)
	}
	for i := 0; i < rows; i++ {
		cols[0][i] = variant.ArrayOf([]variant.Value{particle(i, 0), particle(i, 1), particle(i, 2)})
		cols[1][i], cols[2][i], cols[3][i] = variant.Int(1), variant.Int(2), variant.Int(3)
		cols[4][i], cols[5][i] = particle(i, 3), particle(i, 4)
	}
	return NewSchema([]string{"Jet", "i", "j", "k", "jet", "mu"}), &vector.Batch{Cols: cols}
}

// selectList parses a SELECT list into its expressions.
func selectList(b *testing.B, list string) []sqlast.Expr {
	b.Helper()
	q, err := sqlparse.Parse(`SELECT ` + list + ` FROM "t"`)
	if err != nil {
		b.Fatal(err)
	}
	var exprs []sqlast.Expr
	for _, it := range q.(*sqlast.Select).Items {
		exprs = append(exprs, it.Expr)
	}
	return exprs
}

// BenchmarkExprDAG evaluates ADL's two heaviest expression sets over one
// 1 024-row batch, steady state: q6's merged projection (every let inlined,
// so each jet field is spelled seven times — the DAG evaluates it once) and
// q7's ΔR filter with its lazy AND. allocs/op is the contract: 0. The
// _compile variants time building the DAG, which every bind pays.
func BenchmarkExprDAG(b *testing.B) {
	sc, batch := jetBatch(1024)
	jet := func(n string) string { return `GET("Jet", "` + n + `" - 1)` }
	sum := func(term func(j string) string) string {
		return term(jet("i")) + " + " + term(jet("j")) + " + " + term(jet("k"))
	}
	pt := func(j string) string { return `GET(` + j + `, 'pt')` }
	pz := func(j string) string { return pt(j) + ` * SINH(GET(` + j + `, 'eta'))` }
	q6 := strings.Join([]string{
		jet("i"), jet("j"), jet("k"),
		sum(func(j string) string { return pt(j) + ` * COS(GET(` + j + `, 'phi'))` }),
		sum(func(j string) string { return pt(j) + ` * SIN(GET(` + j + `, 'phi'))` }),
		sum(pz),
		sum(func(j string) string {
			return `SQRT(` + pt(j) + ` * ` + pt(j) + ` + (` + pz(j) + `) * (` + pz(j) + `) + GET(` + j + `, 'mass') * GET(` + j + `, 'mass'))`
		}),
	}, ", ")
	dphi := `ATAN2(SIN(GET("jet", 'phi') - GET("mu", 'phi')), COS(GET("jet", 'phi') - GET("mu", 'phi')))`
	deta := `(GET("jet", 'eta') - GET("mu", 'eta'))`
	q7 := `SQRT(` + deta + ` * ` + deta + ` + ` + dphi + ` * ` + dphi + `) < 0.4 AND GET("mu", 'pt') > 10`
	for _, bc := range []struct{ name, list string }{{"q6_project", q6}, {"q7_filter", q7}} {
		exprs := selectList(b, bc.list)
		b.Run(bc.name+"_compile", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := compileVecs(nil, nil, sc, exprs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(bc.name, func(b *testing.B) {
			d, err := compileVecs(nil, nil, sc, exprs)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := d.eval(batch); err != nil { // warm-up: registers reach their size
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := d.eval(batch); err != nil {
					b.Fatal(err)
				}
			}
			st := d.stats()
			b.ReportMetric(float64(st.Nodes), "nodes")
			b.ReportMetric(float64(st.Distinct), "distinct")
		})
	}
}

// BenchmarkQ6Triangle runs ADL q6's trijet pipeline through the engine over
// one 1 024-event batch of five-jet events: three ARRAY_RANGE FLATTENs under
// i < j < k, a projection of the kinematics, and per event the pt of the
// candidate whose mass is nearest 172.5, as GET(ARRAY_AGG(...) WITHIN GROUP
// (ORDER BY ...), 0). rules=on lets the discard rules bound the FLATTENs
// and fold the ARRAY_AGG to one top-1 accumulator that carries only pt;
// rules=off (Engine.noDiscardRules) builds all 125 triples and one sorted
// array of objects per event.
func BenchmarkQ6Triangle(b *testing.B) {
	jet := func(v string) string { return `GET("Jet", "` + v + `".VALUE - 1)` }
	sum := func(f func(j string) string) string {
		return "(" + f(jet("f1")) + " + " + f(jet("f2")) + " + " + f(jet("f3")) + ")"
	}
	px := sum(func(j string) string { return `GET(` + j + `, 'pt') * COS(GET(` + j + `, 'phi'))` })
	py := sum(func(j string) string { return `GET(` + j + `, 'pt') * SIN(GET(` + j + `, 'phi'))` })
	en := sum(func(j string) string {
		return `SQRT(GET(` + j + `, 'pt') * GET(` + j + `, 'pt') + GET(` + j + `, 'mass') * GET(` + j + `, 'mass'))`
	})
	mb := `GREATEST(GET(` + jet("f1") + `, 'btag'), GET(` + jet("f2") + `, 'btag'), GET(` + jet("f3") + `, 'btag'))`
	inner := `SELECT "rid", SQRT(` + px + ` * ` + px + ` + ` + py + ` * ` + py + `) AS "tpt", ` + mb + ` AS "mb", ` +
		`ABS(SQRT(` + en + ` * ` + en + ` - ` + px + ` * ` + px + ` - ` + py + ` * ` + py + `) - 172.5) AS "dm" ` +
		`FROM (SELECT *, SEQ8() AS "rid" FROM "jets"), ` +
		`LATERAL FLATTEN(INPUT => ARRAY_RANGE(1, ARRAY_SIZE("Jet") + 1)) AS "f1", ` +
		`LATERAL FLATTEN(INPUT => ARRAY_RANGE(1, ARRAY_SIZE("Jet") + 1)) AS "f2", ` +
		`LATERAL FLATTEN(INPUT => ARRAY_RANGE(1, ARRAY_SIZE("Jet") + 1)) AS "f3" ` +
		`WHERE "f1".VALUE < "f2".VALUE AND "f2".VALUE < "f3".VALUE`
	sql := `SELECT GET("best", 'pt') AS "pt" FROM (SELECT "rid", GET(ARRAY_AGG(OBJECT_CONSTRUCT('pt', "tpt", 'maxbtag', "mb")) ` +
		`WITHIN GROUP (ORDER BY "dm"), 0) AS "best" FROM (` + inner + `) GROUP BY "rid")`
	for _, on := range []bool{true, false} {
		b.Run(fmt.Sprintf("rules=%s", map[bool]string{true: "on", false: "off"}[on]), func(b *testing.B) {
			e := New(WithBatchSize(1024), WithParallelism(1))
			e.noDiscardRules = !on
			tab, err := e.Catalog().CreateTable("jets", []string{"Jet"})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 1024; i++ {
				jets := make([]string, 5)
				for k := range jets {
					jets[k] = fmt.Sprintf(`{"pt": %d, "phi": %g, "mass": %g, "btag": %g}`,
						20+(i*7+k*13)%60, float64((i*3+k)%63)/10-3.1, float64(k+1)*1.5, float64((i+k)%10)/10)
				}
				if err := tab.AppendObject(variant.MustParseJSON(`{"Jet": [` + strings.Join(jets, ", ") + `]}`)); err != nil {
					b.Fatal(err)
				}
			}
			if plan, err := e.Explain(sql); err != nil || strings.Contains(plan, " top1(") != on {
				b.Fatalf("rules=%v: plan %v\n%s", on, err, plan)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFlattenGather expands one 1 024-row batch of three-element arrays
// through FLATTEN, six parent columns wide: the parent-index pass plus one
// gather per column into recycled storage. allocs/op: 0.
func BenchmarkFlattenGather(b *testing.B) {
	sc, batch := jetBatch(1024)
	input, err := compileVec(nil, nil, sc, sqlast.C("Jet"))
	if err != nil {
		b.Fatal(err)
	}
	it := newFlattenIter(&cycleIter{batches: []*vector.Batch{batch}}, input, false, false, batch.Width(), 1024)
	pull := func() {
		for rows := 0; rows < 3*1024; { // one input batch's worth of output
			out, err := it.NextBatch()
			if err != nil || out == nil {
				b.Fatalf("flatten stopped: %v %v", out, err)
			}
			rows += out.NumRows()
		}
	}
	pull()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pull()
	}
}
