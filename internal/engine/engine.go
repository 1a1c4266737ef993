package engine

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"jsonpark/internal/obsv"
	"jsonpark/internal/sqlparse"
	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// Engine is one embedded database instance: a catalog of micro-partitioned
// tables plus the query pipeline (parse → plan → optimize → execute).
type Engine struct {
	catalog     *storage.Catalog
	batchSize   int
	parallelism int
	memLimit    int64
	dataDir     string
	typedOff    bool
	// cacheSize is the requested entry cap of the query cache (0 = default,
	// < 0 = off) and resultBytes its result budget (0 = no results); cache
	// is the live cache, nil when disabled.
	cacheSize   int
	resultBytes int64
	cache       *queryCache
	// views is the registry of incrementally maintained materialized views.
	views viewRegistry
	// governor, when set, is the server-wide admission gate and shared
	// memory pool every query's accountant draws from.
	governor *Governor
	// progress tracks every in-flight query for ProgressSnapshot.
	progress progressTable
	// batchHook, when set, runs after every root batch the executor drains.
	// Tests use it to hold a query mid-flight deterministically.
	batchHook func()
	// Test hooks, set before the first query (compiled plans are cached on
	// the query text alone). forceHashAgg keeps every aggregate on the hash
	// path — the streaming aggregate's oracle; morselRows shrinks the
	// exchange's morsels so small tables fan out; planCheck turns on the
	// planck pass (planck.go): every compiled plan is cross-checked and
	// every envelope validates the batches it passes on; forceBuild makes
	// every join that may build left build on the side it names — the left
	// build's oracle is buildRight; noDiscardRules turns off the top-1 and
	// flatten-bound rules (discard.go) — their oracle; byteKeyedJoin keys
	// every hash join by bytes and gathers every probe's pairs as variants —
	// the oracle of the numeric join table, the streaming probe and the
	// typed pairs.
	forceHashAgg   bool
	forceBuild     buildSide
	morselRows     int
	planCheck      bool
	noDiscardRules bool
	byteKeyedJoin  bool
}

// Option configures an Engine.
type Option func(*Engine)

// WithBatchSize sets the number of rows per vector batch flowing between
// operators. Values < 1 fall back to vector.DefaultBatchSize.
func WithBatchSize(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.batchSize = n
		}
	}
}

// WithParallelism caps the worker pool of every parallel operator: the
// exchanges (scans and nested FLATTEN/re-aggregate pipelines over morsels)
// and the hash aggregate's phase 1 over a multi-partition table. 1 runs
// everything sequentially; values < 1 fall back to runtime.NumCPU(). Results
// are byte-identical at every setting — operators whose parallel execution
// could change output (float SUM/AVG folds, row IDs used other than as keys,
// unknown aggregates) stay on the sequential path.
func WithParallelism(n int) Option {
	return func(e *Engine) {
		if n > 0 {
			e.parallelism = n
		}
	}
}

// WithMemLimit caps the bytes of retained state the pipeline breakers (hash
// aggregation, join build, sort) may hold per query, measured by a
// conservative deep-size accountant. Crossing the limit never fails the
// query: the charging operator spills to temp-file runs and the output stays
// byte-identical to the unlimited run. Values <= 0 (the default) disable
// accounting entirely.
func WithMemLimit(n int64) Option {
	return func(e *Engine) {
		if n > 0 {
			e.memLimit = n
		}
	}
}

// WithDataDir makes the catalog persistent: sealed partitions are written
// as micro-partition files under dir (one subdirectory per table), and
// tables already on disk are rediscovered lazily on first catalog access.
// Loading is two-phase — headers (schema + zone maps) at open, data
// sections on first scan — so pruning never touches cold data.
func WithDataDir(dir string) Option {
	return func(e *Engine) { e.dataDir = dir }
}

// WithTypedColumns toggles typed execution (on by default): uniform scalar
// leaf columns are shredded at partition seal into typed arrays
// (int64/float64/string/bool + null bitmap, dictionary-encoded strings), and
// expressions keep numbers and booleans in typed registers, both read by
// typed kernels without variant materialization. Results are byte-identical
// either way; false keeps every column and every expression result as
// variant values (the v1 layout). No deployment turns it off: false is the
// variant oracle of the engine, ADL and SSB parity grids, of FuzzPlanDiff's
// oracle cell and of the storage benchmarks.
func WithTypedColumns(on bool) Option {
	return func(e *Engine) { e.typedOff = !on }
}

// WithPlanCacheSize bounds the query cache (querycache.go), which keeps
// compiled plans and, with WithResultCacheBytes, their results: n > 0 sets
// the entry cap, n == 0 (the default) keeps the default size, and n < 0
// disables the cache entirely — every Prepare recompiles from scratch and no
// result is cached.
func WithPlanCacheSize(n int) Option {
	return func(e *Engine) { e.cacheSize = n }
}

// WithResultCacheBytes turns result caching on with a budget of n resident
// row bytes (n <= 0, the default, keeps it off): a repeated query whose
// pinned partition sets are unchanged returns its rows without executing.
// Results larger than the budget are never cached; smaller ones evict the
// least recently used results until they fit.
func WithResultCacheBytes(n int64) Option {
	return func(e *Engine) {
		if n > 0 {
			e.resultBytes = n
		}
	}
}

// WithGovernor attaches a server-wide resource governor: every query's
// memory accountant draws from the governor's shared pool (pool pressure
// triggers spills exactly like WithMemLimit), and callers holding the
// governor can gate admission with Admit. One governor may be shared by
// several engines.
func WithGovernor(g *Governor) Option {
	return func(e *Engine) { e.governor = g }
}

// New returns an empty engine.
func New(opts ...Option) *Engine {
	e := &Engine{
		batchSize:   vector.DefaultBatchSize,
		parallelism: runtime.NumCPU(),
	}
	for _, o := range opts {
		o(e)
	}
	e.catalog = storage.NewCatalog(e.dataDir, !e.typedOff)
	size := e.cacheSize
	if size == 0 {
		size = defaultPlanCacheSize
	}
	if size > 0 {
		e.cache = newQueryCache(size, e.resultBytes)
	}
	return e
}

// BatchSize reports the configured rows-per-batch.
func (e *Engine) BatchSize() int { return e.batchSize }

// Parallelism reports the configured scan worker cap.
func (e *Engine) Parallelism() int { return e.parallelism }

// Catalog exposes the engine's table catalog for loading data.
func (e *Engine) Catalog() *storage.Catalog { return e.catalog }

// Governor returns the attached resource governor, nil when ungoverned.
func (e *Engine) Governor() *Governor { return e.governor }

// SetExecBatchHook installs a callback invoked after every root-level batch
// a query drains. Intended for tests that need to observe a query
// mid-flight (pause in the hook, read ProgressSnapshot, release); install
// it before issuing queries — the hook is captured at Prepare time.
func (e *Engine) SetExecBatchHook(fn func()) { e.batchHook = fn }

// Metrics reports per-query costs, mirroring the measurements of §V:
// compile time (parse + plan + optimize + operator preparation), execution
// time, and the query's counters (bytes scanned per touched column chunk,
// partition pruning, spills, typed columns, cache hits; see obsv.Counters).
type Metrics struct {
	CompileTime time.Duration
	ExecTime    time.Duration
	// MemLimitBytes is the configured per-query memory limit (WithMemLimit);
	// 0 when accounting is off.
	MemLimitBytes int64
	obsv.Counters
}

// Total returns compile + execution time (the paper's "total time").
func (m Metrics) Total() time.Duration { return m.CompileTime + m.ExecTime }

// Result is a completed query: column names, rows, and metrics.
type Result struct {
	Columns []string
	Rows    [][]variant.Value
	Metrics Metrics
	// items is the result cache's encoding of Rows (ItemsJSON), shared with
	// the cache; nil when the result cache did not keep these rows.
	items []byte
}

// ItemsJSON returns a single-column result's items as one compact JSON
// array, each item rendered by variant.Value.AppendJSON. Rows the result
// cache kept, served by a hit or attached by the run that computed them,
// return the bytes the cache encoded once — read-only, and describing the
// rows as the query returned them, not as a caller may have mutated them;
// any other result is encoded on each call.
func (r *Result) ItemsJSON() ([]byte, error) {
	if r.items != nil {
		return slices.Clip(r.items), nil
	}
	return appendItems(nil, r.Rows)
}

// ErrPreparedConsumed reports a second Run/RunCtx on the same Prepared:
// per-run iterator state is single-use, so reuse would replay half-drained
// iterators. Re-Prepare instead — with the plan cache on, that costs only
// the bind phase.
var ErrPreparedConsumed = errors.New("prepared: already consumed")

// Prepared is a compiled query ready to execute once.
type Prepared struct {
	eng *Engine
	// cp is the template this run bound; with result caching on, bind looked
	// its text up under deps, the versions it pinned, and on a miss RunCtx
	// attaches the rows to it under the same deps.
	cp   *compiledPlan
	deps []resultDep
	// hit is the current result half bind found: RunCtx returns it, and iter
	// and ctx stay nil — no operator tree, accountant or progress entry.
	hit     *cachedRows
	iter    batchIter
	ctx     *execContext
	metrics Metrics
	// used enforces the single-use contract (see ErrPreparedConsumed).
	used atomic.Bool
}

// PrepareOptions customizes compilation: an optional parent span that
// receives one child per compile stage (sql.parse, plan.build,
// engine.optimize with one grandchild per rule, engine.prepare), Analyze
// to meter every operator (rows, wall time, scan bytes) during execution,
// and TraceID to label the query's live-progress entry so /debug/queries
// can correlate in-flight progress with the finished trace.
type PrepareOptions struct {
	Span    *obsv.Span
	Analyze bool
	TraceID string
}

// Prepare compiles SQL text into an executable plan, reporting compile time.
func (e *Engine) Prepare(sql string) (*Prepared, error) {
	return e.PrepareOpts(sql, PrepareOptions{})
}

// PrepareOpts is Prepare with tracing and per-operator analysis. It splits
// into two phases: compile (parse → plan → optimize → physicalize —
// everything derivable from the SQL text and the schema, served from the
// prepared-plan cache on repeats) and bind (fresh per-run iterator state
// over the shared template).
func (e *Engine) PrepareOpts(sql string, po PrepareOptions) (*Prepared, error) {
	start := time.Now()
	cp, hit, err := e.compiledFor(sql, po)
	if err != nil {
		return nil, err
	}
	p, err := e.bind(cp, po)
	if err != nil {
		return nil, err
	}
	p.metrics.PlanCacheHit, p.metrics.CompileTime = hit, time.Since(start)
	return p, nil
}

// compile runs every per-query-text stage and returns the immutable plan
// template — the one way SQL becomes a physical plan, for Prepare, Explain
// and CreateView alike. Nothing in the result may depend on per-run state:
// schemas are pre-materialized so concurrent binds never race on the lazy
// memos.
func (e *Engine) compile(sql string, po PrepareOptions) (*compiledPlan, error) {
	psp := po.Span.Child("sql.parse")
	q, err := sqlparse.Parse(sql)
	psp.End()
	if err != nil {
		return nil, err
	}
	bsp := po.Span.Child("plan.build")
	pl := &planner{catalog: e.catalog}
	plan, err := pl.Build(q)
	bsp.End()
	if err != nil {
		return nil, err
	}
	osp := po.Span.Child("engine.optimize")
	plan = optimize(plan, osp, !e.noDiscardRules)
	osp.End()
	physp := po.Span.Child("engine.physicalize")
	plan, counts := physicalize(plan, e.forceHashAgg)
	physp.SetAttr("stream-aggs", counts.streamAggs)
	physp.SetAttr("parallel-pipelines", counts.parallelPipelines)
	physp.End()
	if e.planCheck {
		if err := checkPlan(plan); err != nil {
			return nil, err
		}
	}
	materializeSchemas(plan)
	return &compiledPlan{sql: sql, plan: plan, columns: plan.Schema().Names, tables: pl.tables}, nil
}

// materializeSchemas forces every node's lazy schema memo while the plan is
// still private to one goroutine; cached templates are then read-only under
// concurrent binds.
func materializeSchemas(n Node) {
	forEachNode(n, func(x Node) { x.Schema() })
}

// bind builds the per-run state over a compiled template. It first pins the
// snapshot of every table the template reads — the pins seal buffered rows
// and fix the read view, so data appended after compile is visible on every
// run — and, with result caching on, looks the template's result half up
// under the pinned versions. A current one makes the run a hit and nothing
// else is built. Otherwise bind builds the execution context over the same
// pins, the memory accountant (wired to the governor pool when one is
// attached), the progress entry and the operator iterator tree. The
// batch-hook instrumentation path always executes. The template itself is
// only read.
func (e *Engine) bind(cp *compiledPlan, po PrepareOptions) (*Prepared, error) {
	snaps := make(map[*storage.Table]storage.TableSnapshot, len(cp.tables))
	for _, t := range cp.tables {
		snaps[t] = t.Snapshot()
	}
	p := &Prepared{eng: e, cp: cp}
	if e.cache != nil && e.cache.maxBytes > 0 && e.batchHook == nil {
		p.deps = snapshotDeps(snaps)
		if p.hit = e.cache.result(cp.sql, p.deps); p.hit != nil {
			return p, nil
		}
	}
	ctx := &execContext{
		metrics:       &p.metrics,
		batchSize:     e.batchSize,
		parallelism:   e.parallelism,
		morselRows:    e.morselRows,
		planCheck:     e.planCheck,
		acct:          e.queryAccountant(),
		prog:          newQueryProgress(cp.plan, cp.sql, po.TraceID),
		analyze:       po.Analyze,
		batchHook:     e.batchHook,
		typedOff:      e.typedOff,
		forceBuild:    e.forceBuild,
		snapshots:     snaps,
		byteKeyedJoin: e.byteKeyedJoin,
	}
	if ctx.batchSize <= 0 {
		ctx.batchSize = vector.DefaultBatchSize
	}
	prsp := po.Span.Child("engine.prepare")
	iter, err := prepare(cp.plan, ctx)
	prsp.SetAttr("expr-nodes", ctx.exprs.Nodes)
	prsp.SetAttr("expr-distinct", ctx.exprs.Distinct)
	prsp.SetAttr("expr-slots", ctx.exprs.Slots)
	prsp.End()
	if err != nil {
		return nil, err
	}
	p.iter, p.ctx = iter, ctx
	return p, nil
}

// queryAccountant builds one run's memory accountant: the engine's per-query
// limit, drawing from the governor's pool when one is attached. The run
// drains it when it ends, so the pool gets back whatever is still charged.
func (e *Engine) queryAccountant() *memAccountant {
	acct := &memAccountant{limit: e.memLimit}
	if e.governor.memLimited() {
		acct.pool = e.governor
	}
	return acct
}

// fillMetrics copies what a run counted outside m — the typed, fallback and
// disk-read column counts and the accountant's memory figures — into m,
// with the execution time since start and the rows returned.
func (c *execContext) fillMetrics(m *Metrics, start time.Time, rows int) {
	m.TypedCols = atomic.LoadInt64(&c.typedCols)
	m.FallbackCols = atomic.LoadInt64(&c.fallbackCols)
	m.DiskReads = atomic.LoadInt64(&c.diskReads)
	m.ExecTime = time.Since(start)
	m.RowsReturned = int64(rows)
	m.MemPeakBytes, m.Spills, m.SpillBytes = c.acct.snapshot()
	if c.acct.enabled() {
		m.MemLimitBytes = c.acct.limit
	}
}

// Run executes the prepared query to completion. A Prepared is single-use.
func (p *Prepared) Run() (*Result, error) {
	return p.RunCtx(context.Background())
}

// RunCtx executes the prepared query under ctx: a cancel or deadline aborts
// the query within one batch of work on any pipeline (every operator and
// every parallel worker polls it), the error satisfies
// errors.Is(err, context.Canceled) / context.DeadlineExceeded, and every
// worker goroutine has exited by the time RunCtx returns.
func (p *Prepared) RunCtx(ctx context.Context) (*Result, error) {
	if p.used.Swap(true) {
		return nil, ErrPreparedConsumed
	}
	// Result-cache hit: bind pinned every table's partition-set version, so an
	// exact (query text, version vector) match means the cached rows are
	// byte-identical to what execution would produce.
	if h := p.hit; h != nil {
		m := p.metrics
		m.ResultCacheHit = true
		m.RowsReturned = int64(len(h.rows))
		return &Result{Columns: slices.Clone(p.cp.columns), Rows: copyRows(h.rows), Metrics: m, items: h.items}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Installed before the first NextBatch; workers inherit visibility through
	// their spawning goroutine.
	p.ctx.qctx = ctx
	// Backstop: whatever the operators still hold charged goes back to the
	// governor pool even on error paths.
	defer p.ctx.acct.drain()
	p.eng.progress.add(p.ctx.prog)
	defer p.eng.progress.remove(p.ctx.prog)
	start := time.Now()
	rows, err := drainRowsHooked(p.iter, p.ctx.batchHook)
	p.iter.Close()
	if err != nil {
		return nil, err
	}
	m := &p.metrics // the execution context counted the scans into it
	p.ctx.fillMetrics(m, start, len(rows))
	res := &Result{Columns: slices.Clone(p.cp.columns), Rows: rows, Metrics: *m}
	if p.deps != nil {
		res.items = p.eng.cache.attach(p.cp, p.deps, rows)
	}
	return res, nil
}

// PlanStats returns the annotated operator tree of a query prepared with
// Analyze and executed with Run; nil otherwise — and nil for a result-cache
// hit, which executed nothing, Analyze or not. Stats reflect execution so
// far, so call it after Run completes: the root's typed, fallback and
// disk-read counts are the ones Run filled into the result's Metrics.
func (p *Prepared) PlanStats() *PlanStats {
	if p.ctx == nil || !p.ctx.analyze {
		return nil
	}
	ps := buildPlanStats(p.cp.plan, p.ctx)
	ps.TypedCols, ps.FallbackCols, ps.DiskReads = p.metrics.TypedCols, p.metrics.FallbackCols, p.metrics.DiskReads
	return ps
}

// QueryAnalyze compiles with per-operator metering, executes, and returns
// the result together with the annotated plan tree (EXPLAIN ANALYZE).
func (e *Engine) QueryAnalyze(sql string) (*Result, *PlanStats, error) {
	p, err := e.PrepareOpts(sql, PrepareOptions{Analyze: true})
	if err != nil {
		return nil, nil, err
	}
	res, err := p.Run()
	if err != nil {
		return nil, nil, err
	}
	return res, p.PlanStats(), nil
}

// Query compiles and executes SQL text in one call.
func (e *Engine) Query(sql string) (*Result, error) {
	return e.QueryCtx(context.Background(), sql)
}

// QueryCtx compiles and executes SQL text under a cancellation context.
func (e *Engine) QueryCtx(ctx context.Context, sql string) (*Result, error) {
	p, err := e.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return p.RunCtx(ctx)
}

// Explain returns a textual rendering of the physical plan compile builds.
func (e *Engine) Explain(sql string) (string, error) {
	cp, err := e.compile(sql, PrepareOptions{})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	explainNode(&b, cp.plan, 0)
	return b.String(), nil
}

func explainNode(b *strings.Builder, n Node, depth int) {
	op, detail := describeNode(n)
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(op)
	if detail != "" {
		b.WriteByte(' ')
		b.WriteString(detail)
	}
	if es, ok := nodeExprStats(n); ok {
		b.WriteByte(' ')
		b.WriteString(es.String())
	}
	if x, ok := n.(*JoinNode); ok {
		b.WriteByte(' ')
		b.WriteString(chooseBuild(x, (*storage.Table).NumRows, buildAuto).String())
	}
	b.WriteByte('\n')
	inputSlots(n, func(in *Node) { explainNode(b, *in, depth+1) })
}
