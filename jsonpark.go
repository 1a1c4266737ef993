// Package jsonpark is an embedded analytical engine that executes JSONiq —
// a query language designed for nested data — by translating each query
// into a single native SQL query over a columnar, micro-partitioned storage
// engine, through a lazy data-frame API.
//
// It is a from-scratch reproduction of "Addressing the Nested Data
// Processing Gap: JSONiq Queries on Snowflake Through Snowpark" (ICDE 2024):
// the JSONiq frontend lowers a query to an expression tree and an iterator
// tree; the translator maps FLWOR iterators to DataFrame operations and
// non-FLWOR iterators to Column expressions; nested queries re-aggregate via
// row-ID injection, LATERAL FLATTEN and ARRAY_AGG, with both published
// strategies against erroneous object elimination (a KEEP flag column, or a
// copy + left outer join). An interpreted back-end executes the same
// iterator tree directly and stands in for the paper's DSQL baselines.
//
// Quick start:
//
//	w := jsonpark.Open()
//	w.CreateCollection("orders", []string{"id", "items"})
//	w.LoadJSON("orders", `{"id": 1, "items": [{"sku": "a", "qty": 2}]}`)
//	res, err := w.Query(`
//	    for $o in collection("orders")
//	    for $i in $o.items[]
//	    return {"id": $o.id, "sku": $i.sku}`)
package jsonpark

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"strconv"
	"strings"
	"sync"
	"time"

	"jsonpark/internal/core"
	"jsonpark/internal/engine"
	"jsonpark/internal/iterplan"
	"jsonpark/internal/jsoniq"
	"jsonpark/internal/obsv"
	"jsonpark/internal/obsv/qlog"
	"jsonpark/internal/runtime"
	"jsonpark/internal/snowpark"
	"jsonpark/internal/variant"
)

// Value is the dynamically typed value model (the VARIANT analogue): null,
// boolean, integer, double, string, array or object.
type Value = variant.Value

// Result is a completed query with column names, rows and execution metrics.
type Result = engine.Result

// Metrics reports per-query compile time, execution time, bytes scanned and
// partition-pruning counts.
type Metrics = engine.Metrics

// Strategy selects the nested-query object-elimination handling.
type Strategy = core.Strategy

// Strategies: the flag-column approach (default), the JOIN-based approach,
// and the automatic per-query chooser (the paper's §IV-E future work).
const (
	StrategyKeepFlag = core.StrategyKeepFlag
	StrategyJoin     = core.StrategyJoin
	StrategyAuto     = core.StrategyAuto
)

// ParseJSON decodes one JSON document into a Value.
func ParseJSON(data string) (Value, error) { return variant.ParseJSON([]byte(data)) }

// Warehouse is one embedded database: a catalog of collections plus the
// translation and execution pipeline.
type Warehouse struct {
	eng  *engine.Engine
	sess *snowpark.Session
	obs  *obsv.Observer
	// docs holds every document LoadObject appended, as the concatenated
	// exact binary encoding (Value.AppendBinary) of each collection, only
	// so that QueryInterpreted can replay them. Bytes, not Values: storage
	// keeps its own frozen copy, and a second copy as live objects would be
	// re-marked by every garbage collection. Appends never rewrite a byte,
	// so a slice header taken under docsMu stays readable after it.
	docsMu sync.Mutex
	docs   map[string][]byte
	// slowThresh/slowOn arm slow-query capture (WithSlowQueryMillis):
	// queries at or above the threshold retain their full span tree and
	// EXPLAIN ANALYZE snapshot in the observer's slow ring.
	slowThresh time.Duration
	slowOn     bool
}

// OpenOption configures a Warehouse.
type OpenOption func(*openConfig)

// openConfig holds the engine options Open forwards unchanged, plus the
// warehouse's own two settings.
type openConfig struct {
	engine   []engine.Option
	slowMS   int64
	traceOut io.Writer
}

// WithBatchSize sets the rows-per-batch of the vectorized executor (default
// 1024). Mostly useful for testing and benchmarking batch-size sensitivity.
func WithBatchSize(n int) OpenOption {
	return func(c *openConfig) { c.engine = append(c.engine, engine.WithBatchSize(n)) }
}

// WithParallelism caps the worker pools of every parallel operator: morsel
// table scans and nested pipelines, and the hash aggregate's phase 1 over a
// multi-partition table. Default: the number of CPUs; 1 forces fully sequential execution. Results are byte-identical at
// any setting.
func WithParallelism(n int) OpenOption {
	return func(c *openConfig) { c.engine = append(c.engine, engine.WithParallelism(n)) }
}

// WithMemLimit caps the bytes of retained state the pipeline breakers
// (hash aggregation, join build, sort) may hold per query. Crossing the
// limit never fails the query: the charging operator spills to temp-file
// runs and the output stays byte-identical to the unlimited run. Values
// <= 0 (the default) disable accounting.
func WithMemLimit(bytes int64) OpenOption {
	return func(c *openConfig) { c.engine = append(c.engine, engine.WithMemLimit(bytes)) }
}

// WithSlowQueryMillis arms slow-query capture (the -slow-query-ms flag):
// queries whose end-to-end wall time reaches ms milliseconds retain their
// full span tree plus an EXPLAIN ANALYZE snapshot in the observer's slow
// ring (Observer().Slow, served at GET /debug/slow). ms == 0 captures every
// query; negative (the default) disables capture. Arming capture forces
// per-operator metering on for every traced query, so it carries the same
// overhead as WithAnalyze.
func WithSlowQueryMillis(ms int64) OpenOption {
	return func(c *openConfig) { c.slowMS = ms }
}

// WithTraceExport streams every finished query trace to w as one JSON line
// (the -trace-out flag), so span trees survive process exit for offline
// analysis. Writes are serialized; w is not closed by the warehouse.
func WithTraceExport(w io.Writer) OpenOption {
	return func(c *openConfig) { c.traceOut = w }
}

// WithDataDir makes the warehouse persistent (the -data-dir flag): sealed
// micro-partitions are written under dir (one subdirectory per collection,
// one file per partition: typed column arrays, zone maps, and a versioned
// header), and collections already on disk are rediscovered on first
// access. Reopening is lazy and two-phase — partition headers (schema +
// zone maps) load at open, so pruning works before any data is read; data
// sections stream in on first scan. Rows still buffered in a collection's
// open partition are not on disk until Flush (or the partition seals on
// its own). Empty dir (the default) keeps everything in memory.
func WithDataDir(dir string) OpenOption {
	return func(c *openConfig) { c.engine = append(c.engine, engine.WithDataDir(dir)) }
}

// WithPlanCacheSize bounds the engine's query cache (the -plan-cache-size
// flag), which keeps compiled plans and, with WithResultCacheBytes, their
// results: repeated queries skip the compile pipeline
// (parse/plan/optimize/physicalize) and pay only the per-run bind cost.
// n > 0 caps resident entries, 0 (the default) keeps the engine default,
// n < 0 disables the cache, results included. A cached plan is reused while
// every collection it reads is still the same collection: dropping and
// recreating a collection recompiles the plans over it and no others, and
// appends and Flush never do.
func WithPlanCacheSize(n int) OpenOption {
	return func(c *openConfig) { c.engine = append(c.engine, engine.WithPlanCacheSize(n)) }
}

// WithResultCacheBytes turns on the result cache (the -result-cache-bytes
// flag) with a budget of n resident row bytes; n <= 0 (the default) keeps it
// off. A repeated query whose pinned partition sets are unchanged returns
// its rows without executing, byte-identical to a cold run: an append to a
// collection (its seal advances the partition-set version) or recreating it
// makes the next lookup miss. Results live in the plan cache's entries, so
// they need the plan cache on. Results larger than the budget are never
// cached; smaller ones evict the least recently used results until they fit.
func WithResultCacheBytes(n int64) OpenOption {
	return func(c *openConfig) { c.engine = append(c.engine, engine.WithResultCacheBytes(n)) }
}

// Governor is the server-wide resource governor: one shared memory pool all
// queries draw from plus a per-tenant admission gate. Create with
// NewGovernor and attach via WithGovernor; one governor may serve several
// warehouses.
type Governor = engine.Governor

// GovernorConfig sizes a Governor (see engine.GovernorConfig).
type GovernorConfig = engine.GovernorConfig

// AdmissionError reports a request the governor shed; the server maps it to
// HTTP 429 with a Retry-After header.
type AdmissionError = engine.AdmissionError

// NewGovernor builds a resource governor with the given pool size and
// admission limits.
func NewGovernor(cfg GovernorConfig) *Governor { return engine.NewGovernor(cfg) }

// WithGovernor attaches a resource governor (the -global-mem-limit /
// -tenant-slots flags): every query's memory accountant draws from the
// governor's shared pool — pool pressure triggers spills exactly like
// WithMemLimit — and servers gate request admission through it.
func WithGovernor(g *Governor) OpenOption {
	return func(c *openConfig) { c.engine = append(c.engine, engine.WithGovernor(g)) }
}

// ParseByteSize parses a human byte-size string — "67108864", "64KiB",
// "512MiB", "1GiB", "2kb", "10m" — into bytes. Suffixes are binary
// (KiB/K/k = 1024) and case-insensitive; the "iB"/"b" tail is optional.
// Sizes of 2^63 bytes or more are rejected.
func ParseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("jsonpark: empty byte size")
	}
	i := len(t)
	for i > 0 {
		c := t[i-1]
		if c >= '0' && c <= '9' || c == '.' {
			break
		}
		i--
	}
	num, suffix := t[:i], strings.ToLower(strings.TrimSpace(t[i:]))
	mult := int64(1)
	switch strings.TrimSuffix(strings.TrimSuffix(suffix, "ib"), "b") {
	case "":
		if suffix == "ib" { // bare "ib" is not a unit
			return 0, fmt.Errorf("jsonpark: bad byte size %q", s)
		}
	case "k":
		mult = 1 << 10
	case "m":
		mult = 1 << 20
	case "g":
		mult = 1 << 30
	case "t":
		mult = 1 << 40
	default:
		return 0, fmt.Errorf("jsonpark: bad byte size %q", s)
	}
	f, err := strconv.ParseFloat(num, 64)
	if err != nil || f < 0 {
		return 0, fmt.Errorf("jsonpark: bad byte size %q", s)
	}
	n := f * float64(mult)
	if n >= 1<<63 { // int64 conversion would wrap to a negative size
		return 0, fmt.Errorf("jsonpark: byte size %q overflows int64", s)
	}
	return int64(n), nil
}

// Open creates an empty in-memory warehouse.
func Open(opts ...OpenOption) *Warehouse {
	c := openConfig{slowMS: -1}
	for _, fn := range opts {
		fn(&c)
	}
	eng := engine.New(c.engine...)
	w := &Warehouse{
		eng:  eng,
		sess: snowpark.NewSession(eng),
		obs:  obsv.NewObserver(),
		docs: make(map[string][]byte),
	}
	w.obs.RegisterPlanCacheStats(eng.PlanCacheStats)
	w.obs.RegisterResultCacheStats(eng.ResultCacheStats)
	if g := eng.Governor(); g != nil {
		w.obs.RegisterGovernorStats(func() obsv.GovernorStats {
			s := g.Snapshot()
			return obsv.GovernorStats{
				MemUsedBytes:  s.MemUsedBytes,
				MemLimitBytes: s.MemLimitBytes,
				Active:        int64(s.Active),
				Waiting:       int64(s.Waiting),
				AdmittedTotal: s.AdmittedTotal,
				ShedTotal:     s.ShedTotal,
			}
		})
	}
	w.slowThresh, w.slowOn = obsv.Threshold(c.slowMS)
	if c.traceOut != nil {
		sink := c.traceOut
		enc := json.NewEncoder(sink)
		w.obs.Tracer.SetExporter(func(td *obsv.TraceData) {
			// Encode errors are swallowed: the exporter must never take a
			// query down with it (sink may be a closing file at shutdown).
			_ = enc.Encode(td)
		})
	}
	return w
}

// CreateCollection registers a collection staged with one column per listed
// top-level field (the multi-column VARIANT staging of the paper's §III-C).
func (w *Warehouse) CreateCollection(name string, columns []string) error {
	_, err := w.eng.Catalog().CreateTable(name, columns)
	return err
}

// LoadObject appends one object; each staged column takes the same-named
// top-level field (missing fields become NULL).
func (w *Warehouse) LoadObject(collection string, v Value) error {
	t, err := w.eng.Catalog().Table(collection)
	if err != nil {
		return err
	}
	if err := t.AppendObject(v); err != nil {
		return err
	}
	w.docsMu.Lock()
	w.docs[collection] = v.AppendBinary(w.docs[collection])
	w.docsMu.Unlock()
	return nil
}

// LoadJSON appends one JSON document.
func (w *Warehouse) LoadJSON(collection, doc string) error {
	v, err := ParseJSON(doc)
	if err != nil {
		return err
	}
	return w.LoadObject(collection, v)
}

// QueryOption customizes translation and execution.
type QueryOption func(*queryConfig)

type queryConfig struct {
	opts    core.Options
	analyze bool
	ctx     context.Context
}

// WithStrategy selects the nested-query elimination strategy.
func WithStrategy(s Strategy) QueryOption {
	return func(c *queryConfig) { c.opts.Strategy = s }
}

// WithAnalyze enables per-operator execution metering (EXPLAIN ANALYZE):
// the QueryReport's Plan carries rows in/out, wall time and scan accounting
// for every operator. Costs two clock reads per operator per row, so it is
// off by default.
func WithAnalyze() QueryOption {
	return func(c *queryConfig) { c.analyze = true }
}

// WithContext executes the query under ctx: a cancel or deadline aborts
// execution promptly — every operator and parallel worker polls it — and
// the returned error satisfies errors.Is(err, context.Canceled) or
// context.DeadlineExceeded. Cancelled queries count under the
// jsonpark_queries_cancelled_total metric rather than as errors.
func WithContext(ctx context.Context) QueryOption {
	return func(c *queryConfig) { c.ctx = ctx }
}

// Translate compiles a JSONiq query to its single native SQL string without
// executing it.
func (w *Warehouse) Translate(jsoniqSrc string, opts ...QueryOption) (string, error) {
	var c queryConfig
	for _, fn := range opts {
		fn(&c)
	}
	res, err := core.Translate(w.sess, jsoniqSrc, c.opts)
	if err != nil {
		return "", err
	}
	return res.SQL, nil
}

// QueryReport is one fully observed query: the result plus everything the
// lifecycle recorded — trace ID, generated SQL, resolved strategy, iterator
// census, the span tree, and (with WithAnalyze) the annotated plan.
type QueryReport struct {
	TraceID  string
	Query    string
	SQL      string
	Strategy string
	Census   iterplan.CensusResult
	Result   *Result
	// Plan is the per-operator stats tree; nil unless WithAnalyze was given
	// or slow-query capture is armed on the warehouse.
	Plan *engine.PlanStats
	// Trace is the finished span tree covering every lowering stage.
	Trace *obsv.TraceData
	// Slow marks a query that met the warehouse's slow-query threshold and
	// was captured in the observer's slow ring; callers log it at warn.
	Slow bool
}

// RenderAnalyze formats the annotated plan tree (EXPLAIN ANALYZE output);
// empty when the query ran without WithAnalyze.
func (r *QueryReport) RenderAnalyze() string {
	if r.Plan == nil {
		return ""
	}
	return r.Plan.Render()
}

// QueryLogRecord flattens the report into a structured query-log record:
// trace ID, fingerprint, per-phase timings and execution metrics. Nil-safe —
// a nil receiver (query failed before a report existed) yields a record
// carrying only status and error.
func (r *QueryReport) QueryLogRecord(status string, err error) qlog.QueryRecord {
	rec := qlog.QueryRecord{Status: status}
	if err != nil {
		rec.Error = err.Error()
	}
	if r == nil {
		return rec
	}
	rec.TraceID = r.TraceID
	rec.Query = r.Query
	rec.Strategy = r.Strategy
	rec.Slow = r.Slow
	if r.SQL != "" {
		rec.Fingerprint = qlog.Fingerprint(r.SQL, r.Strategy)
	}
	if r.Trace != nil {
		ph := obsv.Phases(r.Trace)
		rec.ParseUS = ph.Parse.Microseconds()
		rec.PlanUS = ph.Plan.Microseconds()
		rec.SQLGenUS = ph.SQLGen.Microseconds()
		rec.ExecUS = ph.Exec.Microseconds()
		rec.TotalUS = r.Trace.DurUS
	}
	if r.Result != nil {
		m := r.Result.Metrics
		rec.CacheHit = m.PlanCacheHit
		rec.ResultCacheHit = m.ResultCacheHit
		rec.Rows = m.RowsReturned
		rec.BytesScanned = m.BytesScanned
		rec.MemPeakBytes = m.MemPeakBytes
		rec.SpillBytes = m.SpillBytes
		rec.Spills = m.Spills
		rec.ParallelBreakers = int64(m.ParallelBreakers)
		rec.TypedCols = m.TypedCols
		rec.FallbackCols = m.FallbackCols
		rec.DiskReads = m.DiskReads
	}
	return rec
}

// Query translates and executes a JSONiq query. The result has one column,
// "result", holding the returned items.
func (w *Warehouse) Query(jsoniqSrc string, opts ...QueryOption) (*Result, error) {
	rep, err := w.QueryTraced(jsoniqSrc, opts...)
	if err != nil {
		return nil, err
	}
	return rep.Result, nil
}

// QueryTraced runs a query with full lifecycle observability: a trace is
// recorded into the warehouse observer's ring buffer (span per stage), the
// standard metrics are updated, and the report carries trace ID, SQL,
// census and — with WithAnalyze — the per-operator plan statistics.
func (w *Warehouse) QueryTraced(jsoniqSrc string, opts ...QueryOption) (*QueryReport, error) {
	var c queryConfig
	for _, fn := range opts {
		fn(&c)
	}
	// Slow-query capture needs the EXPLAIN ANALYZE snapshot, so arming it
	// forces per-operator metering on for every traced query.
	if w.slowOn {
		c.analyze = true
	}
	tr := w.obs.Tracer.Start("query")
	tr.SetAttr("query", jsoniqSrc)
	c.opts.Span = tr.Root

	slow := false
	finish := func(res *Result, plan *engine.PlanStats, err error) *obsv.TraceData {
		tr.SetError(err)
		td := tr.Finish()
		if w.slowOn && td.Duration() >= w.slowThresh {
			slow = true
			sq := obsv.SlowQuery{Trace: td}
			if plan != nil {
				sq.Plan = plan
			}
			w.obs.Slow.Record(sq)
		}
		ob := obsv.QueryObservation{
			Trace:   td,
			Errored: err != nil,
			Cancelled: err != nil &&
				(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)),
		}
		if res != nil {
			ob.BytesScanned = res.Metrics.BytesScanned
			ob.RowsReturned = res.Metrics.RowsReturned
			ob.PartitionsTotal = int64(res.Metrics.PartitionsTotal)
			ob.PartitionsPruned = int64(res.Metrics.PartitionsPruned)
			ob.ParallelBreakers = int64(res.Metrics.ParallelBreakers)
			ob.SpillBytes = res.Metrics.SpillBytes
			ob.TypedCols = res.Metrics.TypedCols
			ob.FallbackCols = res.Metrics.FallbackCols
			ob.DiskReads = res.Metrics.DiskReads
		}
		w.obs.ObserveQuery(ob)
		return td
	}

	tres, err := core.Translate(w.sess, jsoniqSrc, c.opts)
	if err != nil {
		td := finish(nil, nil, err)
		// Failed queries still return a partial report (trace identity and
		// span tree) alongside the error, so callers can log them fully.
		return &QueryReport{TraceID: tr.ID, Query: jsoniqSrc, Trace: td, Slow: slow}, err
	}
	tr.SetAttr("sql", tres.SQL)
	tr.SetAttr("strategy", tres.Strategy.String())
	qctx := c.ctx
	if qctx == nil {
		qctx = context.Background()
	}
	result, plan, err := tres.DataFrame.CollectOpts(qctx, engine.PrepareOptions{
		Span:    tr.Root,
		Analyze: c.analyze,
		TraceID: tr.ID,
	})
	if err != nil {
		td := finish(nil, nil, err)
		return &QueryReport{
			TraceID:  tr.ID,
			Query:    jsoniqSrc,
			SQL:      tres.SQL,
			Strategy: tres.Strategy.String(),
			Census:   tres.Census,
			Trace:    td,
			Slow:     slow,
		}, err
	}
	tr.SetAttr("rows", fmt.Sprint(result.Metrics.RowsReturned))
	td := finish(result, plan, nil)
	return &QueryReport{
		TraceID:  tr.ID,
		Query:    jsoniqSrc,
		SQL:      tres.SQL,
		Strategy: tres.Strategy.String(),
		Census:   tres.Census,
		Result:   result,
		Plan:     plan,
		Trace:    td,
		Slow:     slow,
	}, nil
}

// QueryItems is Query returning the bare result items.
func (w *Warehouse) QueryItems(jsoniqSrc string, opts ...QueryOption) ([]Value, error) {
	res, err := w.Query(jsoniqSrc, opts...)
	if err != nil {
		return nil, err
	}
	items := make([]Value, len(res.Rows))
	for i, row := range res.Rows {
		if len(row) != 1 {
			return nil, fmt.Errorf("jsonpark: unexpected row arity %d", len(row))
		}
		items[i] = row[0]
	}
	return items, nil
}

// CreateView registers an incrementally maintained materialized view over a
// JSONiq query: the query is translated to SQL once, and each ViewResult
// call refreshes the view by scanning only the micro-partitions sealed since
// the previous refresh, delta-merging accumulator state so the rows stay
// byte-identical to re-running the full query. Only queries whose plan is a
// mergeable aggregation (COUNT/MIN/MAX/ARRAY_AGG-family over a stateless
// single-collection pipeline, optionally under stateless
// project/sort/limit/filter operators) are accepted; anything else errors at
// registration.
func (w *Warehouse) CreateView(name, jsoniqSrc string, opts ...QueryOption) error {
	sql, err := w.Translate(jsoniqSrc, opts...)
	if err != nil {
		return err
	}
	return w.eng.CreateView(name, sql)
}

// CreateSQLView is CreateView over raw SQL text, skipping JSONiq translation.
func (w *Warehouse) CreateSQLView(name, sql string) error {
	return w.eng.CreateView(name, sql)
}

// ViewResult incrementally refreshes the named view and returns its rows.
func (w *Warehouse) ViewResult(ctx context.Context, name string) (*Result, error) {
	return w.eng.QueryView(ctx, name)
}

// DropView removes a materialized view, reporting whether it existed.
func (w *Warehouse) DropView(name string) bool { return w.eng.DropView(name) }

// ViewInfo describes one registered materialized view.
type ViewInfo = engine.ViewInfo

// ListViews describes every registered materialized view in name order.
func (w *Warehouse) ListViews() []ViewInfo { return w.eng.ViewInfos() }

// Flush seals every collection's buffered rows into micro-partitions and —
// when the warehouse has a data directory — waits for them to reach disk.
// Call it before a planned shutdown so a reopened warehouse sees every
// loaded row; a warehouse without WithDataDir just seals in memory.
func (w *Warehouse) Flush() error { return w.eng.Catalog().Flush() }

// SQL executes a raw SQL query against the engine directly.
func (w *Warehouse) SQL(sql string) (*Result, error) { return w.eng.Query(sql) }

// SQLCtx is SQL under a cancellation context.
func (w *Warehouse) SQLCtx(ctx context.Context, sql string) (*Result, error) {
	return w.eng.QueryCtx(ctx, sql)
}

// ExplainSQL renders the optimized plan of a SQL query.
func (w *Warehouse) ExplainSQL(sql string) (string, error) { return w.eng.Explain(sql) }

// QueryInterpreted executes the JSONiq query on the interpreted iterator
// back-end (the DSQL-engine baseline) over the same loaded documents.
func (w *Warehouse) QueryInterpreted(jsoniqSrc string) ([]Value, error) {
	expr, err := jsoniq.Parse(jsoniqSrc)
	if err != nil {
		return nil, err
	}
	w.docsMu.Lock()
	encoded := maps.Clone(w.docs)
	w.docsMu.Unlock()
	rt := runtime.New(runtime.ProfileDefault)
	for name, enc := range encoded {
		var docs []Value
		for len(enc) > 0 {
			var d Value
			if d, enc, err = variant.DecodeBinary(enc); err != nil {
				return nil, err
			}
			docs = append(docs, d)
		}
		rt.LoadCollection(name, docs)
	}
	return rt.Run(jsoniq.Rewrite(expr))
}

// Engine exposes the underlying SQL engine (advanced use: catalog access,
// custom staging, metrics inspection).
func (w *Warehouse) Engine() *engine.Engine { return w.eng }

// Governor returns the attached resource governor, nil when the warehouse
// runs ungoverned.
func (w *Warehouse) Governor() *Governor { return w.eng.Governor() }

// Observer exposes the warehouse's observability substrate: the metrics
// registry (Prometheus exposition) and the recent-query trace ring.
func (w *Warehouse) Observer() *obsv.Observer { return w.obs }

// Session exposes the data-frame session for programmatic query building
// with the snowpark-style API.
func (w *Warehouse) Session() *snowpark.Session { return w.sess }
