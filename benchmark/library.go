package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"

	"jsonpark"
	"jsonpark/internal/adl"
	"jsonpark/internal/core"
	"jsonpark/internal/engine"
	"jsonpark/internal/hepdata"
	"jsonpark/internal/iterplan"
	"jsonpark/internal/jsoniq"
	jsrt "jsonpark/internal/runtime"
	"jsonpark/internal/snowpark"
	"jsonpark/internal/sqlparse"
	"jsonpark/internal/ssb"
	"jsonpark/internal/variant"
)

// libQuery is one benchmark query in both languages.
type libQuery struct {
	ID, JSONiq, SQL string
	Strategy        core.Strategy
}

func adlQueries() []libQuery {
	var out []libQuery
	for _, q := range adl.Queries() {
		out = append(out, libQuery{q.ID, q.JSONiq, q.SQL, q.Strategy})
	}
	return out
}

func ssbQueries() []libQuery {
	var out []libQuery
	for _, q := range ssb.Queries() {
		out = append(out, libQuery{ID: q.ID, JSONiq: q.JSONiq, SQL: q.SQL})
	}
	return out
}

// table is one generated collection, ready to load.
type table struct {
	name string
	cols []string
	docs []variant.Value
}

func adlTables(seed int64, events int) []table {
	return []table{{"adl", hepdata.Columns(), hepdata.Events(seed, events)}}
}

func ssbTables(seed int64, sz ssb.Sizes) []table {
	t := ssb.Generate(seed, sz)
	var out []table
	for _, x := range []table{
		{name: "lineorder", docs: t.Lineorder}, {name: "customer", docs: t.Customer},
		{name: "supplier", docs: t.Supplier}, {name: "part", docs: t.Part}, {name: "date", docs: t.Date},
	} {
		x.cols = x.docs[0].AsObject().Keys()
		out = append(out, x)
	}
	return out
}

// Fixed sizes. A run's length is cut by doing fewer passes, never by
// shrinking these; smoke sizes exist only for the tests.
type sizes struct {
	adlEvents, sliceEvents int
	ssbSF                  float64
	ssbSlice               ssb.Sizes
}

func sizesFor(smoke bool) sizes {
	// The interpreter materializes cross products, so its SSB slice keeps the
	// date dimension to twelve weeks, as the package's own tests do.
	if smoke {
		return sizes{adlEvents: 300, sliceEvents: 40, ssbSF: 0.25,
			ssbSlice: ssb.Sizes{Lineorders: 150, Customers: 20, Suppliers: 10, Parts: 40, Dates: 28}}
	}
	return sizes{adlEvents: 8000, sliceEvents: 200, ssbSF: 8,
		ssbSlice: ssb.Sizes{Lineorders: 800, Customers: 40, Suppliers: 15, Parts: 80, Dates: 84}}
}

// libSpec is a library workload: its queries, its full-size data and the
// small slice on which the interpreter can serve as oracle.
type libSpec struct {
	queries []libQuery
	full    func(seed int64, sz sizes) ([]table, map[string]float64)
	slice   func(seed int64, sz sizes) []table
}

func adlSlice(seed int64, sz sizes) []table { return adlTables(seed, sz.sliceEvents) }

var libSpecs = map[string]libSpec{
	"adl_exec": {
		queries: adlQueries(), slice: adlSlice,
		full: func(seed int64, sz sizes) ([]table, map[string]float64) {
			return adlTables(seed, sz.adlEvents), map[string]float64{"adl_events": float64(sz.adlEvents)}
		},
	},
	// adl_compile keeps the texts and removes the data: on an empty
	// collection nothing executes, and no timing depends on the seed's draw.
	// (Even one event costs q6-q8 milliseconds of execution start-up, which
	// varies with that event's jets.)
	"adl_compile": {
		queries: adlQueries(), slice: adlSlice,
		full: func(seed int64, sz sizes) ([]table, map[string]float64) {
			return adlTables(seed, 0), map[string]float64{"adl_events": 0}
		},
	},
	"ssb_exec": {
		queries: ssbQueries(),
		slice:   func(seed int64, sz sizes) []table { return ssbTables(seed, sz.ssbSlice) },
		full: func(seed int64, sz sizes) ([]table, map[string]float64) {
			ts := ssbTables(seed, ssb.SizesForScaleFactor(sz.ssbSF))
			return ts, map[string]float64{"ssb_sf": sz.ssbSF, "ssb_lineorders": float64(len(ts[0].docs))}
		},
	},
}

// openLibrary opens a warehouse with the prepared-plan cache off (the result
// cache is off by default), so every pass pays real compilation and execution.
func openLibrary() *jsonpark.Warehouse {
	return jsonpark.Open(jsonpark.WithPlanCacheSize(-1))
}

// loadTables stages and seals the tables, timing the two storage calls.
func loadTables(eng *engine.Engine, ts []table) (appendDur, sealDur time.Duration, docs int, err error) {
	for _, t := range ts {
		tab, err := eng.Catalog().CreateTable(t.name, t.cols)
		if err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		for _, d := range t.docs {
			if err := tab.AppendObject(d); err != nil {
				return 0, 0, 0, err
			}
		}
		t1 := time.Now()
		tab.Seal()
		appendDur += t1.Sub(t0)
		sealDur += time.Since(t1)
		docs += len(t.docs)
	}
	return appendDur, sealDur, docs, nil
}

// canonValues hashes a result as an order-insensitive bag of items.
// HashKey already equates 1 with 1.0 and ignores object key order. A lone
// NULL hashes as a lone 0: a SUM over no rows is NULL in SQL and 0 in JSONiq,
// and on a small table a filter may well match nothing.
func canonValues(items []variant.Value) uint64 {
	if len(items) == 1 && items[0].IsNull() {
		items = []variant.Value{variant.Int(0)}
	}
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.HashKey()
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// canonResult hashes an engine result; a multi-column row becomes an object
// keyed by column name, so handwritten SQL rows compare with JSONiq objects.
func canonResult(res *engine.Result) uint64 {
	items := make([]variant.Value, len(res.Rows))
	for i, row := range res.Rows {
		if len(row) == 1 {
			items[i] = row[0]
			continue
		}
		o := variant.NewObject()
		for c, name := range res.Columns {
			o.Set(name, row[c])
		}
		items[i] = variant.ObjectValue(o)
	}
	return canonValues(items)
}

// gate checks, on a slice small enough for the interpreter, that generated
// SQL, handwritten SQL and the interpreted runtime give the same answers.
func gate(queries []libQuery, ts []table) error {
	w := openLibrary()
	if _, _, _, err := loadTables(w.Engine(), ts); err != nil {
		return err
	}
	rt := jsrt.New(jsrt.ProfileDefault)
	for _, t := range ts {
		rt.LoadCollection(t.name, t.docs)
	}
	for _, q := range queries {
		gen, err := w.Query(q.JSONiq, jsonpark.WithStrategy(q.Strategy))
		if err != nil {
			return fmt.Errorf("gate %s generated: %w", q.ID, err)
		}
		hand, err := w.SQL(q.SQL)
		if err != nil {
			return fmt.Errorf("gate %s handwritten: %w", q.ID, err)
		}
		expr, err := jsoniq.Parse(q.JSONiq)
		if err != nil {
			return fmt.Errorf("gate %s parse: %w", q.ID, err)
		}
		items, err := rt.Run(jsoniq.Rewrite(expr))
		if err != nil {
			return fmt.Errorf("gate %s interpreted: %w", q.ID, err)
		}
		g, h, i := canonResult(gen), canonResult(hand), canonValues(items)
		if g != h || g != i {
			return fmt.Errorf("gate %s: generated %x, handwritten %x, interpreted %x disagree", q.ID, g, h, i)
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// minPasses is the floor on measured passes when a window is shorter than
// the work (smoke runs, very slow machines).
const minPasses = 3

// libState is a library workload set up: the loaded warehouse and the
// reference answers.
type libState struct {
	w                  *jsonpark.Warehouse
	tables             []table
	ref                map[string]uint64
	appendDur, sealDur time.Duration
	docs               int
}

// setUpLibrary passes the interpreter gate, generates and loads the full-size
// data, and takes the reference answers from the handwritten SQL at full
// size; the unmeasured generated pass must already agree with them.
func setUpLibrary(cfg config, spec libSpec, sz sizes, r *runResult) (*libState, error) {
	if err := gate(spec.queries, spec.slice(cfg.seed, sz)); err != nil {
		return nil, err
	}
	tables, sizeRec := spec.full(cfg.seed, sz)
	for k, v := range sizeRec {
		r.Sizes[k] = v
	}
	st := &libState{w: openLibrary(), tables: tables, ref: map[string]uint64{}}
	var err error
	if st.appendDur, st.sealDur, st.docs, err = loadTables(st.w.Engine(), tables); err != nil {
		return nil, err
	}
	for _, q := range spec.queries {
		res, err := st.w.SQL(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s handwritten: %w", q.ID, err)
		}
		st.ref[q.ID] = canonResult(res)
	}
	for _, q := range spec.queries {
		res, err := st.w.Query(q.JSONiq, jsonpark.WithStrategy(q.Strategy))
		if err != nil {
			return nil, fmt.Errorf("%s generated: %w", q.ID, err)
		}
		if canonResult(res) != st.ref[q.ID] {
			return nil, fmt.Errorf("%s: generated and handwritten answers differ at full size", q.ID)
		}
	}
	return st, nil
}

// runLibrary runs one of the three library workloads.
func runLibrary(cfg config, r *runResult) error {
	spec := libSpecs[cfg.workload]
	sz := sizesFor(cfg.smoke)
	st, err := setUpRepeatedly(cfg, r,
		func() (*libState, error) { return setUpLibrary(cfg, spec, sz, r) },
		func(*libState) {}) // an earlier set-up is garbage, collected below
	if err != nil {
		return err
	}
	w, ref := st.w, st.ref
	// Hand the set-up's garbage back before the window, or rss_p95_mb
	// measures how far the scavenger happened to get.
	debug.FreeOSMemory()

	if cfg.trace {
		if st.docs > 0 { // adl_compile loads nothing
			r.set("storage.append_us_per_doc", us(st.appendDur)/float64(st.docs), st.docs)
			r.set("storage.seal_ms", ms(st.sealDur), 1)
			perDoc, n, err := parseCost(st.tables[0].docs)
			if err != nil {
				return err
			}
			r.set("variant.parse_us_per_doc", perDoc, n)
		}
		parts := 0
		for _, t := range st.tables {
			tab, err := w.Engine().Catalog().Table(t.name)
			if err != nil {
				return err
			}
			parts += len(tab.Partitions())
		}
		r.set("storage.partitions", float64(parts), 1)
		return tracedLibrary(cfg, spec, w, ref, r)
	}

	var sweeps []float64
	perQuery := map[string][]float64{}
	window := time.Duration(cfg.seconds * float64(time.Second))
	sustainedRSS := watchRSS("self")
	start := time.Now()
	for pass := 0; pass < minPasses || time.Since(start) < window; pass++ {
		var sweep time.Duration
		for _, q := range spec.queries {
			t0 := time.Now()
			res, err := w.Query(q.JSONiq, jsonpark.WithStrategy(q.Strategy))
			d := time.Since(t0)
			sweep += d
			perQuery[q.ID] = append(perQuery[q.ID], ms(d))
			r.Attempted++
			if err != nil {
				r.fail("%s: %v", q.ID, err)
			} else if canonResult(res) != ref[q.ID] {
				r.fail("%s: answer differs from handwritten reference", q.ID)
			}
		}
		sweeps = append(sweeps, ms(sweep))
	}
	speed := r.windowSpeed(start, time.Now())
	r.set("rss_p95_mb", sustainedRSS(), 1)
	r.Sizes["passes"] = float64(len(sweeps))
	// A caller's query is a uniform draw from a set of 8 or 13, so each query
	// counts once, at its median over the passes: latency_p50_ms is the
	// typical query and latency_slow_ms the slowest. (Pooled raw samples put
	// every percentile of so few classes on or near the boundary between two.)
	var lat []float64
	for _, q := range spec.queries {
		m := median(perQuery[q.ID])
		lat = append(lat, m)
		r.Queries = append(r.Queries, queryRow{ID: q.ID, GenMS: m, Samples: len(perQuery[q.ID])})
	}
	correct := float64(r.Attempted-r.Failed) / float64(r.Attempted)
	r.set("throughput_qps", correct*float64(len(spec.queries))*1000/median(sweeps)/speed, len(sweeps))
	r.set("latency_p50_ms", median(lat)*speed, len(sweeps))
	r.set("latency_slow_ms", slices.Max(lat)*speed, len(sweeps))
	return nil
}

// parseCost times variant.ParseJSON over (up to 2000 of) the documents.
func parseCost(docs []variant.Value) (usPerDoc float64, n int, err error) {
	if len(docs) > 2000 {
		docs = docs[:2000]
	}
	raw := make([][]byte, len(docs))
	for i, d := range docs {
		raw[i] = []byte(d.JSON())
	}
	t0 := time.Now()
	for _, b := range raw {
		if _, err := variant.ParseJSON(b); err != nil {
			return 0, 0, err
		}
	}
	return us(time.Since(t0)) / float64(len(raw)), len(raw), nil
}

// layerAcc collects samples per (metric, query).
type layerAcc map[string]map[string][]float64

func (a layerAcc) add(metric, qid string, v float64) {
	if a[metric] == nil {
		a[metric] = map[string][]float64{}
	}
	a[metric][qid] = append(a[metric][qid], v)
}

// sum is the per-pass value of a metric: the sum over queries of each
// query's median, with the smallest per-query sample count.
func (a layerAcc) sum(metric string) (float64, int) {
	total, n := 0.0, math.MaxInt
	for _, xs := range a[metric] {
		total += median(xs)
		n = min(n, len(xs))
	}
	if n == math.MaxInt {
		n = 0
	}
	return total, n
}

// tracedSpanPasses bounds the span file: every pass is recorded and feeds
// the metrics, only the first few are written out.
const tracedSpanPasses = 8

// tracedLibrary is the traced run: each pass executes the pipeline stage by
// stage for the generated and the handwritten path, then once through
// Warehouse.Query so the staged sum can be checked against the real call.
func tracedLibrary(cfg config, spec libSpec, w *jsonpark.Warehouse, ref map[string]uint64, r *runResult) error {
	rec := newRecorder()
	acc := layerAcc{}
	r.ProgramTraces = map[string]any{}
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	passes := 0
	for ; passes < minPasses || time.Since(start) < window; passes++ {
		// Three sweeps per pass, so each path sees the queries in the order
		// and cache state an untraced pass does.
		for _, path := range []string{"gen", "hand"} {
			for _, q := range spec.queries {
				r.Attempted++
				got, err := staged(rec, acc, w, q, path, passes)
				if err != nil {
					r.fail("%s %s staged: %v", q.ID, path, err)
				} else if got != ref[q.ID] {
					r.fail("%s %s staged: answer differs from reference", q.ID, path)
				}
			}
		}
		for _, q := range spec.queries {
			t0 := time.Now()
			rep, err := w.QueryTraced(q.JSONiq, jsonpark.WithStrategy(q.Strategy))
			acc.add("query_wall_ms", q.ID, ms(time.Since(t0)))
			r.Attempted++
			if err != nil {
				r.fail("%s: %v", q.ID, err)
				continue
			}
			if canonResult(rep.Result) != ref[q.ID] {
				r.fail("%s: answer differs from reference", q.ID)
			}
			if passes == 0 {
				r.ProgramTraces[q.ID] = rep.Trace
			}
		}
	}
	r.Sizes["passes"] = float64(passes)
	for _, s := range rec.spans {
		if s.Pass < tracedSpanPasses {
			r.Spans = append(r.Spans, s)
		}
	}

	r.windowSpeed(start, time.Now()) // the per-layer times stay as the clock read them

	// staged files its samples under the metrics' own names; the few other
	// keys in acc are intermediate.
	for _, d := range perLayer {
		if _, ok := acc[d.Name]; ok {
			v, n := acc.sum(d.Name)
			r.set(d.Name, v, n)
		}
	}
	pruned, n := acc.sum("partitions_pruned")
	total, _ := acc.sum("partitions_total")
	if total > 0 {
		r.set("engine.partitions_pruned_ratio", pruned/total, n)
	}
	var ratios []float64
	worst := 0.0
	for _, q := range spec.queries {
		g, h := median(acc["sweep_ms"][q.ID]), median(acc["hand_sweep_ms"][q.ID])
		ratios = append(ratios, g/h)
		worst = max(worst, g/h)
		r.Queries = append(r.Queries, queryRow{
			ID: q.ID, GenMS: g, HandMS: h, Ratio: g / h,
			ScanMB: median(acc["bytes_scanned_mb"][q.ID]), Samples: len(acc["sweep_ms"][q.ID]),
		})
	}
	r.set("gen_over_hand", geomean(ratios), len(ratios))
	r.set("gen_over_hand_max", worst, len(ratios))

	// The two checks on the measurement itself, both against the same
	// query through Warehouse.Query: what the staged run costs in wall time,
	// and how much of the real call the recorded stage spans account for.
	var pooled []float64
	for _, xs := range acc["query_wall_ms"] {
		pooled = append(pooled, xs...)
	}
	setTail(r, pooled)
	wall, n := acc.sum("query_wall_ms")
	stagedWall, _ := acc.sum("staged_wall_ms")
	r.set("obsv.trace_overhead_ratio", stagedWall/wall, n)
	self := selfTimes(rec.spans)
	covered := map[int]float64{} // by root span: self time of its stages, encoding aside
	for _, s := range rec.spans {
		if s.Path != "gen" || s.Parent == 0 || s.Name == "variant.encode" {
			continue
		}
		root := s.Parent
		if up := rec.spans[root-1].Parent; up != 0 { // an estimated child hangs one level lower
			root = up
		}
		covered[root] += ms(self[s.ID])
	}
	cov := layerAcc{}
	for root, v := range covered {
		cov.add("covered_ms", rec.spans[root-1].Query, v)
	}
	coveredSum, samples := cov.sum("covered_ms")
	r.set("trace.coverage", coveredSum/wall, samples)
	return nil
}

// staged runs one query stage by stage on the given path ("gen" starts from
// JSONiq, "hand" from the handwritten SQL), recording a span per call and a
// sample per layer metric, and returns the answer's hash.
func staged(rec *recorder, acc layerAcc, w *jsonpark.Warehouse, q libQuery, path string, pass int) (uint64, error) {
	wallStart := time.Now()
	root := rec.begin(span{Name: "query", Query: q.ID, Path: path, Pass: pass})
	defer rec.end(root)
	stage := func(name string, fn func() error) (int, time.Duration, error) {
		id := rec.begin(span{Parent: root, Name: name, Query: q.ID, Path: path, Pass: pass})
		t0 := time.Now()
		err := fn()
		d := time.Since(t0)
		rec.end(id)
		if err != nil {
			err = fmt.Errorf("%s: %w", name, err)
		}
		return id, d, err
	}
	gen := path == "gen"
	sql := q.SQL
	var frontend time.Duration
	if gen {
		// jsoniq.Parse lexes internally; an identical standalone Lex just
		// before gives the share of Parse that is lexing.
		t0 := time.Now()
		if _, err := jsoniq.Lex(q.JSONiq); err != nil {
			return 0, err
		}
		lexD := time.Since(t0)
		var expr jsoniq.Expr
		id, parseD, err := stage("jsoniq.parse", func() (e error) { expr, e = jsoniq.Parse(q.JSONiq); return })
		if err != nil {
			return 0, err
		}
		rec.estimate(id, "jsoniq.lex", lexD)
		_, rewriteD, _ := stage("jsoniq.rewrite", func() error { expr = jsoniq.Rewrite(expr); return nil })
		// As in core.Translate, building the iterator tree includes its census.
		var census iterplan.CensusResult
		_, buildD, err := stage("iterplan.build", func() error {
			iters, err := iterplan.Build(expr)
			if err == nil {
				census = iterplan.Census(iters)
			}
			return err
		})
		if err != nil {
			return 0, err
		}
		var df *snowpark.DataFrame
		_, translateD, err := stage("core.translate", func() (e error) {
			df, e = core.TranslateExpr(w.Session(), expr, core.Options{Strategy: q.Strategy})
			return
		})
		if err != nil {
			return 0, err
		}
		_, renderD, _ := stage("snowpark.render", func() error { sql = df.SQL(); return nil })
		nodes := 0
		jsoniq.Walk(expr, func(jsoniq.Expr) bool { nodes++; return true })
		acc.add("jsoniq.lex_us", q.ID, us(lexD))
		acc.add("jsoniq.parse_us", q.ID, us(parseD-lexD))
		acc.add("jsoniq.rewrite_us", q.ID, us(rewriteD))
		acc.add("jsoniq.ast_nodes", q.ID, float64(nodes))
		acc.add("iterplan.build_us", q.ID, us(buildD))
		acc.add("iterplan.iterators", q.ID, float64(census.Total()))
		acc.add("core.translate_us", q.ID, us(translateD))
		acc.add("snowpark.render_us", q.ID, us(renderD))
		acc.add("snowpark.sql_bytes", q.ID, float64(len(sql)))
		frontend = parseD + rewriteD + buildD + translateD + renderD
	}

	// Engine.Prepare parses the SQL internally; same device as for Lex.
	t0 := time.Now()
	if _, err := sqlparse.Parse(sql); err != nil {
		return 0, err
	}
	sqlParseD := time.Since(t0)
	var p *engine.Prepared
	id, prepareD, err := stage("engine.prepare", func() (e error) { p, e = w.Engine().Prepare(sql); return })
	if err != nil {
		return 0, err
	}
	rec.estimate(id, "sqlparse.parse", sqlParseD)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var res *engine.Result
	_, execD, err := stage("engine.exec", func() (e error) { res, e = p.RunCtx(context.Background()); return })
	if err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	_, encodeD, _ := stage("variant.encode", func() error {
		for _, row := range res.Rows {
			for _, v := range row {
				_ = v.JSON()
			}
		}
		return nil
	})

	total := frontend + prepareD + execD
	if gen {
		m := res.Metrics
		acc.add("sqlparse.parse_us", q.ID, us(sqlParseD))
		acc.add("engine.compile_us", q.ID, us(prepareD-sqlParseD))
		acc.add("engine.exec_ms", q.ID, ms(execD))
		acc.add("engine.alloc_mb", q.ID, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		acc.add("engine.rows_out", q.ID, float64(m.RowsReturned))
		acc.add("engine.parallel_breakers", q.ID, float64(m.ParallelBreakers))
		acc.add("engine.spills", q.ID, float64(m.Spills))
		acc.add("engine.typed_cols", q.ID, float64(m.TypedCols))
		acc.add("engine.fallback_cols", q.ID, float64(m.FallbackCols))
		acc.add("bytes_scanned_mb", q.ID, float64(m.BytesScanned)/1e6)
		acc.add("partitions_pruned", q.ID, float64(m.PartitionsPruned))
		acc.add("partitions_total", q.ID, float64(m.PartitionsTotal))
		acc.add("variant.encode_us", q.ID, us(encodeD))
		acc.add("sweep_ms", q.ID, ms(total))
		acc.add("staged_wall_ms", q.ID, ms(time.Since(wallStart)))
	} else {
		acc.add("sqlparse.hand_parse_us", q.ID, us(sqlParseD))
		acc.add("engine.hand_compile_us", q.ID, us(prepareD-sqlParseD))
		acc.add("engine.hand_exec_ms", q.ID, ms(execD))
		acc.add("hand_sweep_ms", q.ID, ms(total))
	}
	return canonResult(res), nil
}
