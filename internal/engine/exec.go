package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// execContext carries per-query runtime state shared by all operators.
// Scan workers run on multiple goroutines, so the shared metrics (and the
// scan and spill fields of the per-node records) are updated under mu.
type execContext struct {
	metrics *Metrics
	mu      sync.Mutex
	// prog is the query's per-node record table (progress.go), allocated at
	// bind: every operator's envelope, on the driver and on the worker
	// chains, adds its rows and batches there, and the memory-governed
	// operators keep their held bytes there. ProgressSnapshot and PlanStats
	// both read it. Nil outside a prepared query (a view refresh).
	prog *queryProgress
	// analyze adds wall time to the driver envelopes' metering (EXPLAIN
	// ANALYZE); PlanStats is nil without it.
	analyze bool
	// batchSize is the target row count of one vector.Batch.
	batchSize int
	// parallelism caps the morsel worker pool of each scan and the worker
	// pools of the parallel pipeline breakers, which each decide from it
	// whether to fan out.
	parallelism int
	// morselRows overrides minMorselRows, the exchange's morsel size, and
	// mergeParts the parallel aggregate's merge partitions (Engine.morselRows
	// and Engine.mergeParts, test hooks; 0 keeps the default).
	morselRows, mergeParts int
	// planCheck makes every envelope validate the batches its operator emits
	// (the planck debug pass; Engine.planCheck, a test hook).
	planCheck bool
	// qctx is the query's cancellation context, installed by Prepared.RunCtx
	// before the first NextBatch. Every operator's envelope, worker chains'
	// included, polls it once per batch, and the parallel workers poll it
	// between morsels and partitions.
	qctx context.Context
	// acct is the query's shared memory accountant (mem.go); the pipeline
	// breakers charge retained bytes against it and spill on overflow.
	acct *memAccountant
	// batchHook, when non-nil, runs after every root batch RunCtx drains
	// (test instrumentation for observing queries mid-flight).
	batchHook func()
	// snapshots pins each scanned table's partition set for the whole query:
	// the first pin (at bind) seals buffered rows and fixes the MVCC read
	// view, and every later scan of the same table — including the parallel
	// aggregate's partition claims — reuses the pinned set, so one query can
	// never observe a torn snapshot across concurrent appends. Pins happen
	// on the driver goroutine only (prepare and the breaker drivers), so the
	// map needs no lock. The pinned versions also key the result cache.
	snapshots map[*storage.Table]storage.TableSnapshot
	// Storage-path counters (atomic; see countTypedCols and friends below).
	typedCols    int64
	fallbackCols int64
	diskReads    int64
	// exprs totals the expression DAGs prepare compiled for the operator tree
	// (driver goroutine only); it annotates the engine.prepare span.
	exprs exprStats
}

// pinSnapshot returns the query's pinned snapshot of t, taking it on first
// use. Driver-goroutine only (see the snapshots field).
func (c *execContext) pinSnapshot(t *storage.Table) storage.TableSnapshot {
	if s, ok := c.snapshots[t]; ok {
		return s
	}
	if c.snapshots == nil {
		c.snapshots = make(map[*storage.Table]storage.TableSnapshot)
	}
	s := t.Snapshot()
	c.snapshots[t] = s
	return s
}

// queryCtx returns the query's cancellation context (never nil).
func (c *execContext) queryCtx() context.Context {
	if c.qctx == nil {
		return context.Background()
	}
	return c.qctx
}

// cancelled returns the context error, wrapped so callers can still match
// context.Canceled / context.DeadlineExceeded with errors.Is. It polls the
// Done channel, which is lock-free, where Err takes the context's mutex.
func (c *execContext) cancelled() error {
	select {
	case <-c.queryCtx().Done():
		return fmt.Errorf("engine: query interrupted: %w", c.qctx.Err())
	default:
		return nil
	}
}

// addScanCounts merges one partition's accounting into the shared metrics
// and the scan's record. Called concurrently by morsel workers.
func (c *execContext) addScanCounts(st *OpStats, totalParts, pruned int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics.PartitionsTotal += totalParts
	c.metrics.PartitionsPruned += pruned
	c.metrics.BytesScanned += bytes
	st.PartitionsTotal += totalParts
	st.PartitionsPruned += pruned
	st.BytesScanned += bytes
}

// Storage-path counters, updated atomically: expression kernels run on
// morsel workers and the parallel breakers' goroutines. All three methods
// are nil-safe so compiled expressions also work without an execContext
// (benchmarks, tests).

// countTypedCols records n column reads served by typed kernels.
func (c *execContext) countTypedCols(n int) {
	if c != nil {
		atomic.AddInt64(&c.typedCols, int64(n))
	}
}

// countFallbackCols records n typed columns materialized to variants.
func (c *execContext) countFallbackCols(n int) {
	if c != nil {
		atomic.AddInt64(&c.fallbackCols, int64(n))
	}
}

// countDiskRead records one partition data section loaded from disk.
func (c *execContext) countDiskRead() {
	if c != nil {
		atomic.AddInt64(&c.diskReads, 1)
	}
}

// batchIter is the vectorized executor interface: operators exchange
// columnar batches instead of single rows. A nil batch signals end of
// stream. Close releases operator resources (morsel worker pools); it must
// be safe to call more than once and after EOF.
type batchIter interface {
	NextBatch() (*vector.Batch, error)
	Close()
}

// prepare compiles a logical plan into an executable operator tree, each
// operator in its envelope. All expression compilation happens here, so
// preparation cost is part of the measured compile phase.
func prepare(n Node, ctx *execContext) (batchIter, error) {
	it, err := prepareNode(n, ctx)
	if err != nil {
		return it, err
	}
	return ctx.envelop(it, ctx.statsFor(n), ctx.analyze), nil
}

// envelope is the one wrapper around every operator, built by envelop for the
// driver's tree (prepare) and for each worker chain (instantiateChain). Per
// NextBatch it polls cancellation, so a cancel or deadline surfaces within one
// batch of work on any pipeline; validates the emitted batch under plan-check;
// adds the batch to the node's record; and, when timed, adds the call's
// inclusive wall time. Worker chains are not timed: their summed time is not
// wall time, and the parallel operator's own driver-side time covers them.
type envelope struct {
	in    batchIter
	ctx   *execContext
	st    *OpStats
	timed bool
}

func (c *execContext) envelop(in batchIter, st *OpStats, timed bool) batchIter {
	return &envelope{in: in, ctx: c, st: st, timed: timed}
}

func (e *envelope) NextBatch() (*vector.Batch, error) {
	if err := e.ctx.cancelled(); err != nil {
		return nil, err
	}
	var start time.Time
	if e.timed {
		start = time.Now()
	}
	b, err := e.in.NextBatch()
	if e.timed {
		e.st.WallTime += time.Since(start)
	}
	if b == nil {
		return nil, err
	}
	if e.ctx.planCheck && err == nil {
		if verr := validateBatch(b); verr != nil {
			op, _ := describeNode(e.st.node)
			return nil, fmt.Errorf("planck: %s emitted an invalid batch: %w", op, verr)
		}
	}
	e.st.rows.Add(int64(b.NumRows()))
	e.st.batches.Add(1)
	return b, err
}

func (e *envelope) Close() { e.in.Close() }

// prepareNode builds the operator for one plan node; children are built via
// prepare so they get metered too.
func prepareNode(n Node, ctx *execContext) (batchIter, error) {
	switch x := n.(type) {
	case *ScanNode:
		return prepareScan(x, ctx)
	case *FilterNode, *ProjectNode, *FlattenNode:
		return prepareStage(x, ctx)
	case *AggregateNode:
		return prepareAggregate(x, ctx)
	case *ExchangeNode:
		return prepareExchange(x, ctx)
	case *JoinNode:
		return prepareJoin(x, ctx)
	case *SortNode:
		return prepareSort(x, ctx)
	case *LimitNode:
		in, err := prepare(x.Input, ctx)
		if err != nil {
			return nil, err
		}
		return &limitIter{in: in, remaining: x.N}, nil
	case *viewRowsNode:
		// Materialized-view suffix replay: the aggregate's finalized rows feed
		// the stateless operators above it (views.go).
		return &rowsIter{rows: x.rows, width: len(x.schema.Names), size: ctx.batchSize}, nil
	case *UnionNode:
		left, err := prepare(x.Left, ctx)
		if err != nil {
			return nil, err
		}
		right, err := prepare(x.Right, ctx)
		if err != nil {
			left.Close()
			return nil, err
		}
		return &unionIter{iters: []batchIter{left, right}}, nil
	}
	return nil, fmt.Errorf("engine: cannot prepare node %T", n)
}

// prepareStage builds a Filter, Project, Flatten or streamed Aggregate over
// its prepared input through the stage builder worker chains use.
func prepareStage(n Node, ctx *execContext) (batchIter, error) {
	in, err := prepare(planChildren(n)[0], ctx)
	if err != nil {
		return nil, err
	}
	s, err := compileStage(ctx, n)
	if err != nil {
		in.Close()
		return nil, err
	}
	ctx.exprs.add(s.dag.stats())
	return s.instantiate(in, ctx.batchSize), nil
}

// drainRows pulls every batch from an iterator and materializes the active
// rows.
func drainRows(it batchIter) ([][]variant.Value, error) {
	return drainRowsHooked(it, nil)
}

// drainRowsHooked is drainRows with an optional per-batch callback, run
// after each non-nil batch is materialized (test instrumentation).
func drainRowsHooked(it batchIter, hook func()) ([][]variant.Value, error) {
	var out [][]variant.Value
	for {
		b, err := it.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return out, nil
		}
		//jsqlint:ignore memcharge result rows are the query's output handed to the caller, not operator-retained state; the governance budget covers breaker state, not the client result set
		out = b.AppendRows(out)
		if hook != nil {
			hook()
		}
	}
}

// appendTruthy appends to sel the physical indices of the active rows whose
// value is non-NULL and SQL-true.
func appendTruthy(sel []int, b *vector.Batch, vals []variant.Value) []int {
	b.ForEach(func(i int) {
		if !vals[i].IsNull() && truthySQL(vals[i]) {
			sel = append(sel, i)
		}
	})
	return sel
}

// --- filter / project / flatten ---------------------------------------------
//
// The three streaming operators own what they emit — a header, a selection,
// registers, gathered columns — and recycle all of it on their next
// NextBatch (DESIGN.md §6 "Batch lifetime"), so a steady-state pipeline of
// them allocates nothing per batch.

type filterIter struct {
	in   batchIter
	cond *exprDAG
	sel  []int
	out  vector.Batch
}

func (f *filterIter) NextBatch() (*vector.Batch, error) {
	for {
		b, err := f.in.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if kept, err := f.apply(b); kept || err != nil {
			return &f.out, err
		}
	}
}

// apply points f.out at b restricted to the rows passing the condition,
// reporting whether any did.
func (f *filterIter) apply(b *vector.Batch) (bool, error) {
	keep, err := f.cond.eval(b)
	if err != nil {
		return false, err
	}
	if vector.Poisoned() {
		vector.PoisonSel(f.sel)
	}
	f.sel = appendTruthy(f.sel[:0], b, keep[0])
	f.out = vector.Batch{Cols: b.Cols, Sel: f.sel, Typed: b.Typed}
	return len(f.sel) > 0, nil
}

func (f *filterIter) Close() { f.in.Close() }

type projectIter struct {
	in  batchIter
	dag *exprDAG
	out vector.Batch
}

func (p *projectIter) NextBatch() (*vector.Batch, error) {
	b, err := p.in.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	if err := p.dag.project(b, &p.out); err != nil {
		return nil, err
	}
	return &p.out, nil
}

func (p *projectIter) Close() { p.in.Close() }

// flattenIter expands each input row once per element of its array. It works
// a batch at a time and a column at a time: one pass over the arrays fills a
// parent-index vector plus the VALUE and INDEX columns for up to size output
// rows, then every parent column is gathered through the index vector. An
// output batch never spans two input batches (the first would be gone), and a
// cursor (pos, off) resumes mid-batch — mid-array — when an expansion
// overflows size.
type flattenIter struct {
	in     batchIter
	input  *exprDAG
	outer  bool
	size   int
	cur    *vector.Batch   // input batch under expansion
	arrs   []variant.Value // its arrays, aligned with cur's physical rows
	pos    int             // next active row of cur
	off    int             // next element of that row's array
	parent []int
	cols   [][]variant.Value // input width + 2: output adds VALUE and INDEX
	out    vector.Batch
}

func newFlattenIter(in batchIter, input *exprDAG, outer bool, width, size int) *flattenIter {
	return &flattenIter{in: in, input: input, outer: outer, size: size, cols: make([][]variant.Value, width+2)}
}

func (f *flattenIter) NextBatch() (*vector.Batch, error) {
	for {
		if f.cur != nil && f.expand() {
			return &f.out, nil
		}
		if err := f.advance(); err != nil || f.cur == nil {
			return nil, err
		}
	}
}

// advance moves the cursor to the start of the next input batch; f.cur is nil
// at end of input.
func (f *flattenIter) advance() error {
	f.cur = nil
	b, err := f.in.NextBatch()
	if err != nil || b == nil {
		return err
	}
	arrs, err := f.input.eval(b)
	if err != nil {
		return err
	}
	f.cur, f.arrs, f.pos, f.off = b, arrs[0], 0, 0
	return nil
}

// expand fills f.out with the next output rows of f.cur, reporting false
// once the batch is exhausted.
func (f *flattenIter) expand() bool {
	b, w := f.cur, len(f.cols)-2
	if f.parent == nil {
		f.parent = make([]int, 0, f.size)
		for c := range f.cols {
			f.cols[c] = make([]variant.Value, 0, f.size)
		}
	}
	if vector.Poisoned() {
		vector.PoisonSel(f.parent)
		for _, col := range f.cols {
			vector.Poison(col)
		}
	}
	parent, value, index := f.parent[:0], f.cols[w][:0], f.cols[w+1][:0]
	for rows := b.NumRows(); f.pos < rows && len(parent) < f.size; {
		i := b.ActiveAt(f.pos)
		elems := f.arrs[i].AsArray() // nil unless an array
		if len(elems) == 0 {
			if f.outer {
				// OUTER flatten keeps the row with NULL VALUE/INDEX.
				parent, value, index = append(parent, i), append(value, variant.Null), append(index, variant.Null)
			}
			f.pos++
			continue
		}
		take := min(len(elems)-f.off, f.size-len(parent))
		value = append(value, elems[f.off:f.off+take]...)
		for k := f.off; k < f.off+take; k++ {
			parent, index = append(parent, i), append(index, variant.Int(int64(k)))
		}
		if f.off += take; f.off == len(elems) {
			f.pos, f.off = f.pos+1, 0
		}
	}
	f.parent, f.cols[w], f.cols[w+1] = parent, value, index
	if len(parent) == 0 {
		return false
	}
	for c := 0; c < w; c++ {
		f.cols[c] = b.Gather(c, parent, f.cols[c][:0])
	}
	f.out = vector.Batch{Cols: f.cols}
	return true
}

func (f *flattenIter) Close() { f.in.Close() }

// --- aggregation --------------------------------------------------------------

// rowsIter emits pre-materialized rows as dense batches (aggregate and sort
// outputs).
type rowsIter struct {
	rows  [][]variant.Value
	width int
	size  int
	pos   int
}

func (r *rowsIter) NextBatch() (*vector.Batch, error) {
	if r.pos >= len(r.rows) {
		return nil, nil
	}
	hi := r.pos + r.size
	if hi > len(r.rows) {
		hi = len(r.rows)
	}
	b := vector.ColumnizeRows(r.rows, r.width, r.pos, hi)
	r.pos = hi
	return b, nil
}

func (r *rowsIter) Close() {}

// compiledAgg is one aggregate's spec and where its operands sit among the
// aggEval DAG's outputs.
type compiledAgg struct {
	spec  AggSpec
	arg   int   // output index of the argument; -1 for COUNT(*)
	order []int // output indexes of the WITHIN GROUP keys
	descs []bool
}

// aggEval holds the compiled grouping and aggregate expressions of one
// aggregation: one DAG whose outputs are the grouping keys, then each
// aggregate's argument and order keys. The DAG owns registers and SEQ
// counters, so an aggEval must only ever be used by one goroutine — the
// parallel aggregate compiles one per worker.
type aggEval struct {
	dag     *exprDAG
	ngroups int
	aggs    []compiledAgg
	// mergeable: partial states merge exactly (aggsMergeWhy), so a table
	// that overflows spills whole; otherwise the input past it is deferred.
	mergeable bool
	// Per-batch views into the DAG's outputs and one row's worth of them
	// (rowO[a] is nil unless aggregate a has WITHIN GROUP keys; accumulators
	// copy what they keep, so the row scratch is reused).
	avals      [][]variant.Value
	ovals      [][][]variant.Value
	rowG, rowA []variant.Value
	rowO       [][]variant.Value
}

// compileAggEval compiles an aggregate's expressions against its input
// schema.
func compileAggEval(ctx *execContext, x *AggregateNode) (*aggEval, error) {
	exprs := append([]sqlast.Expr(nil), x.GroupBy...)
	aggs := make([]compiledAgg, len(x.Aggs))
	ovals := make([][][]variant.Value, len(x.Aggs))
	rowO := make([][]variant.Value, len(x.Aggs))
	for i, spec := range x.Aggs {
		ca := compiledAgg{spec: spec, arg: -1}
		if spec.Arg != nil {
			ca.arg = len(exprs)
			exprs = append(exprs, spec.Arg)
		}
		for _, o := range spec.OrderBy {
			ca.order = append(ca.order, len(exprs))
			exprs = append(exprs, o.Expr)
			ca.descs = append(ca.descs, o.Desc)
		}
		if len(ca.order) > 0 {
			ovals[i] = make([][]variant.Value, len(ca.order))
			rowO[i] = make([]variant.Value, len(ca.order))
		}
		aggs[i] = ca
	}
	dag, err := compileVecs(ctx, x.Input.Schema(), exprs)
	if err != nil {
		return nil, err
	}
	return &aggEval{
		dag: dag, ngroups: len(x.GroupBy), aggs: aggs, mergeable: aggsMergeWhy(x.Aggs) == "",
		avals: make([][]variant.Value, len(aggs)), ovals: ovals,
		rowG: make([]variant.Value, len(x.GroupBy)), rowA: make([]variant.Value, len(aggs)),
		rowO: rowO,
	}, nil
}

// aggGroup is one group's accumulated state.
type aggGroup struct {
	key  string // canonical binary group key (retained for the merge map)
	keys []variant.Value
	accs []accumulator
	// seq is the group's insertion rank within its table; bucket its merge
	// partition. With the index of the merge source that first carried the
	// group they form its stamp, which orders merged groups first-seen.
	seq    int32
	bucket int32
	stamp  int64
}

// aggTable is one hash-aggregation table keyed by the canonical binary
// group key. Lookups reuse keyBuf and only allocate the key string on first
// insertion, so steady-state grouping is allocation-free per row.
type aggTable struct {
	aggs     []compiledAgg
	buckets  int // > 1: thread-local mode, groups also index into byBucket
	groups   map[string]*aggGroup
	order    []*aggGroup   // insertion order
	byBucket [][]*aggGroup // per merge partition, insertion order
	keyBuf   []byte
	rows     int64 // input rows folded (phase-1 accounting)
}

func newAggTable(aggs []compiledAgg, buckets int) *aggTable {
	t := &aggTable{aggs: aggs, buckets: buckets, groups: make(map[string]*aggGroup)}
	if buckets > 1 {
		t.byBucket = make([][]*aggGroup, buckets)
	}
	return t
}

func (t *aggTable) insert(keyBytes []byte, keys []variant.Value) *aggGroup {
	g := &aggGroup{key: string(keyBytes), keys: keys, accs: make([]accumulator, len(t.aggs))}
	for i := range t.aggs {
		g.accs[i] = newAccumulator(t.aggs[i].spec)
	}
	g.seq = int32(len(t.order))
	t.groups[g.key] = g
	t.order = append(t.order, g)
	if t.buckets > 1 {
		g.bucket = bucketOfKey(keyBytes, t.buckets)
		t.byBucket[g.bucket] = append(t.byBucket[g.bucket], g)
	}
	return g
}

// bucketGroups returns the table's groups assigned to merge partition b, in
// insertion order. A single-bucket table holds everything in its global
// insertion order.
func (t *aggTable) bucketGroups(b int) []*aggGroup {
	if t.buckets > 1 {
		return t.byBucket[b]
	}
	return t.order
}

// absorb folds one batch into the table: group keys, aggregate arguments
// and order keys evaluate once per batch, then fold row-wise into the
// accumulators.
func (e *aggEval) absorb(t *aggTable, b *vector.Batch) error {
	gvals, avals, ovals, err := e.evalBatch(b)
	if err != nil {
		return err
	}
	rowG := e.rowG
	var rowErr error
	b.ForEach(func(i int) {
		if rowErr != nil {
			return
		}
		for k := range gvals {
			rowG[k] = gvals[k][i]
		}
		e.loadRow(avals, ovals, i)
		rowErr = e.foldRow(t, rowG, e.rowA, e.rowO)
	})
	return rowErr
}

// loadRow copies physical row i's aggregate arguments and WITHIN GROUP keys
// out of the batch-wide vectors into rowA and rowO — the per-row step the
// hash and the streaming aggregate share.
func (e *aggEval) loadRow(avals [][]variant.Value, ovals [][][]variant.Value, i int) {
	for a := range e.aggs {
		var v variant.Value
		if avals[a] != nil {
			v = avals[a][i]
		}
		e.rowA[a] = v
		for j := range ovals[a] {
			e.rowO[a][j] = ovals[a][j][i]
		}
	}
}

// foldRow folds one row's evaluated values into the table. It is the shared
// per-row body of the streaming absorb and the spill-replay path, so both
// issue the identical insert/add sequence — the replay of deferred tuples
// reproduces the in-memory fold bit for bit.
func (e *aggEval) foldRow(t *aggTable, gv, av []variant.Value, ov [][]variant.Value) error {
	t.rows++
	t.keyBuf = t.keyBuf[:0]
	for k := range gv {
		t.keyBuf = gv[k].AppendGroupKey(t.keyBuf)
	}
	g, ok := t.groups[string(t.keyBuf)]
	if !ok {
		var keys []variant.Value
		if len(gv) > 0 {
			keys = append([]variant.Value(nil), gv...)
		}
		g = t.insert(t.keyBuf, keys)
	}
	for a := range g.accs {
		if err := g.accs[a].add(av[a], ov[a]); err != nil {
			return err
		}
	}
	return nil
}

// emitGroupRows finalizes a list of groups into output rows. A global
// aggregation over an empty input yields one row.
func emitGroupRows(groups []*aggGroup, global bool, aggs []compiledAgg) [][]variant.Value {
	if global && len(groups) == 0 {
		t := newAggTable(aggs, 1)
		t.insert(nil, nil)
		groups = t.order
	}
	out := make([][]variant.Value, 0, len(groups))
	for _, g := range groups {
		row := make([]variant.Value, 0, len(g.keys)+len(g.accs))
		row = append(row, g.keys...)
		for i, acc := range g.accs {
			row = append(row, acc.result(aggs[i].descs))
		}
		out = append(out, row)
	}
	return out
}

// --- the hash aggregate ---------------------------------------------------------
//
// One driver runs every hash aggregate — sequential, fanned out, spilled, and
// a materialized view's refresh — in two phases. Phase 1 folds contiguous
// spans of the input, each into a table of its own (aggSpan); phase 2 merges
// the spans in input order (aggMerger). The sequential aggregate is the
// one-span case, fed by the input pipeline bind prepared; a fanned-out one
// has a span per worker claim over the pinned partitions (parallelAgg); a
// view refresh is one span over the delta partitions, merged into the view's
// retained state (views.go).

// aggSpan is one contiguous span of an aggregate's input: the live table it
// folds into, the state runs its earlier tables spilled (in input order), and
// the bytes the live table holds.
type aggSpan struct {
	table        *aggTable
	runs         []*storage.SpillRun
	held         int64
	rows, groups int64   // folded into the spilled tables
	deferred     *extAgg // the order-exact overflow strategy, once it started
}

func newAggSpan(aggs []compiledAgg, buckets int) *aggSpan {
	return &aggSpan{table: newAggTable(aggs, buckets)}
}

// fold absorbs every batch of in, then replays the tuples it deferred.
func (s *aggSpan) fold(in batchIter, e *aggEval, mem *opMem) error {
	for {
		b, err := in.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		if err := s.absorb(e, mem, b); err != nil {
			return err
		}
	}
	if s.deferred != nil {
		return s.deferred.replay(e, mem, s.table)
	}
	return nil
}

// absorb is the span's step per input batch: evaluate and fold the batch
// into the live table, charge it, and on overflow move state out of memory.
// A mergeable table spills whole to a state run and a fresh table starts; an
// order-exact one stays resident (its fold must resume bit-exactly at
// replay) and the rest of the input is deferred.
func (s *aggSpan) absorb(e *aggEval, mem *opMem, b *vector.Batch) error {
	if s.deferred != nil {
		return e.spillTuples(s.deferred.w, b)
	}
	if err := e.absorb(s.table, b); err != nil {
		return err
	}
	if !mem.enabled() {
		return nil
	}
	nb := activeRowsBytes(b)
	s.held += nb
	if !mem.charge(nb) {
		return nil
	}
	if !e.mergeable {
		var err error
		s.deferred, err = newExtAgg()
		return err
	}
	run, err := spillAggTable(s.table)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	mem.noteSpill(run.Bytes())
	mem.release(s.held)
	s.held = 0
	s.rows += s.table.rows
	s.groups += int64(len(s.table.order))
	s.table = newAggTable(s.table.aggs, s.table.buckets)
	return nil
}

// folded returns the input rows and the groups the span's tables folded.
func (s *aggSpan) folded() (rows, groups int64) {
	return s.rows + s.table.rows, s.groups + int64(len(s.table.order))
}

// mergeInto folds the span's state runs, then its live table, into m as the
// consecutive sources src, src+1, …, keeping the groups of merge bucket b of
// buckets; it returns the next free source index.
func (s *aggSpan) mergeInto(ctx *execContext, m *aggMerger, src, b, buckets int) (int, error) {
	for _, r := range s.runs {
		if err := m.foldRun(ctx, src, r, s.table.aggs, b, buckets); err != nil {
			return 0, err
		}
		src++
	}
	for _, g := range s.table.bucketGroups(b) {
		if err := m.fold(src, g); err != nil {
			return 0, err
		}
	}
	return src + 1, nil
}

// discard removes the span's run files (nil-safe: a failed phase 1 leaves
// unclaimed spans); its bytes go back through the operator's opMem.
func (s *aggSpan) discard() {
	if s == nil {
		return
	}
	for _, r := range s.runs {
		r.Close()
	}
	if s.deferred != nil {
		s.deferred.discard()
	}
}

// aggMerger is the ordered merge of partial states: the merged groups by key
// and in first-seen order. Sources arrive in input order — each span's state
// runs, then its live table, span after span — so a group's partials merge in
// input order and mergeAccumulators reproduces the sequential fold exactly
// (the aggsMergeWhy proof). A group's first source is where the sequential
// aggregate first saw it, so appending it there keeps out in first-seen
// order; its stamp (source << 32 | insertion seq) orders groups across merge
// buckets.
type aggMerger struct {
	seen map[string]*aggGroup
	out  []*aggGroup
}

func (m *aggMerger) fold(src int, g *aggGroup) error {
	dst, ok := m.seen[g.key]
	if !ok {
		if m.seen == nil {
			m.seen = make(map[string]*aggGroup)
		}
		g.stamp = int64(src)<<32 | int64(g.seq)
		m.seen[g.key] = g
		m.out = append(m.out, g)
		return nil
	}
	for a := range dst.accs {
		if err := mergeAccumulators(dst.accs[a], g.accs[a]); err != nil {
			return err
		}
	}
	return nil
}

// mergeSpans is phase 2: workers claim the merge buckets, merge each one's
// groups across the spans, and the buckets' outputs interleave by stamp into
// first-seen order. One span that never spilled is already in first-seen
// order — the unspilled sequential aggregate pays no merge pass.
func mergeSpans(ctx *execContext, spans []*aggSpan, buckets, workers int) ([]*aggGroup, error) {
	if len(spans) == 1 && len(spans[0].runs) == 0 {
		return spans[0].table.order, nil
	}
	merged := make([][]*aggGroup, buckets)
	err := fanOut(ctx, workers, buckets, func(_ int, next func() (int, bool)) error {
		for b, ok := next(); ok; b, ok = next() {
			var m aggMerger
			src := 0
			for _, s := range spans {
				var err error
				if src, err = s.mergeInto(ctx, &m, src, b, buckets); err != nil {
					return err
				}
			}
			merged[b] = m.out
		}
		return nil
	})
	if err != nil || buckets == 1 {
		return merged[0], err
	}
	all := slices.Concat(merged...)
	slices.SortFunc(all, func(a, b *aggGroup) int { return cmp.Compare(a.stamp, b.stamp) })
	return all, nil
}

func prepareAggregate(x *AggregateNode, ctx *execContext) (batchIter, error) {
	if x.Stream {
		return prepareStage(x, ctx)
	}
	in, err := prepare(x.Input, ctx)
	if err != nil {
		return nil, err
	}
	eval, err := compileAggEval(ctx, x)
	if err != nil {
		in.Close()
		return nil, err
	}
	ctx.exprs.add(eval.dag.stats())
	return &aggIter{ctx: ctx, x: x, eval: eval, in: in}, nil
}

// aggIter is the hash aggregate. It runs both phases on its first NextBatch
// and closes its input as soon as phase 1 ends (success or error), releasing
// morsel scan workers promptly; it then drops the reference so consumer
// Close does not touch the input again.
type aggIter struct {
	ctx  *execContext
	x    *AggregateNode
	eval *aggEval  // the driver's copy
	in   batchIter // the sequential input pipeline, prepared at bind
	out  *rowsIter
}

func (a *aggIter) NextBatch() (*vector.Batch, error) {
	if a.out == nil {
		rows, err := a.run()
		a.in = nil // run closed it
		if err != nil {
			return nil, err
		}
		a.out = &rowsIter{rows: rows, width: len(a.x.Schema().Names), size: a.ctx.batchSize}
	}
	return a.out.NextBatch()
}

// run is the driver: phase 1 folds one span from the sequential pipeline or,
// when aggFanOut fans the aggregate out, a span per worker claim
// (parallelAgg); phase 2 merges them.
func (a *aggIter) run() ([][]variant.Value, error) {
	ctx, e := a.ctx, a.eval
	mem := ctx.opMemFor(a.x)
	defer mem.releaseAll()
	var spans []*aggSpan
	defer func() {
		for _, s := range spans {
			s.discard()
		}
	}()
	workers, buckets := 1, 1
	fanned := aggFanOut(ctx, a.x)
	var err error
	if fanned {
		a.in.Close() // the sequential pipeline, unstarted
		workers, buckets = ctx.parallelism, cmp.Or(ctx.mergeParts, ctx.parallelism)
		spans, err = parallelAgg(ctx, a.x, buckets, mem)
	} else {
		spans = []*aggSpan{newAggSpan(e.aggs, 1)}
		err = spans[0].fold(a.in, e, mem)
		a.in.Close()
	}
	if err != nil {
		return nil, err
	}
	start := time.Now()
	groups, err := mergeSpans(ctx, spans, buckets, workers)
	if err != nil {
		return nil, err
	}
	mergeWall := time.Since(start)
	rows := emitGroupRows(groups, e.ngroups == 0, e.aggs)
	if fanned {
		mem.st.MergedGroups, mem.st.MergeWallUS = int64(len(rows)), mergeWall.Microseconds()
	}
	return rows, nil
}

func (a *aggIter) Close() {
	if a.in != nil {
		a.in.Close()
		a.in = nil
	}
}

// streamAggIter is the aggregate over an input clustered on its single group
// key (AggregateNode.Stream; the order property in physical.go proves the key
// column non-decreasing and integer). A key change closes the open group, so
// one set of accumulators serves every group and finished groups go straight
// into recycled output columns — valid until the next NextBatch, like every
// streaming operator's batch (DESIGN.md §6). It holds one group of state: no
// hash table, no memory charge, no spill, and it is not a pipeline breaker.
// Groups come out in key order, which on a clustered key is the hash
// aggregate's first-seen order, and every accumulator sees its group's rows in
// input order, so the output is byte-identical to the hash path's.
type streamAggIter struct {
	in   batchIter
	eval *aggEval
	accs []accumulator
	size int
	key  variant.Value // the open group's key; its AsInt is the comparand
	open bool
	done bool
	cols [][]variant.Value // the key, then one column per aggregate
	out  vector.Batch
}

func newStreamAggIter(in batchIter, eval *aggEval, size int) *streamAggIter {
	s := &streamAggIter{
		in: in, eval: eval, size: size,
		accs: make([]accumulator, len(eval.aggs)),
		cols: make([][]variant.Value, 1+len(eval.aggs)),
	}
	for a := range eval.aggs {
		s.accs[a] = newAccumulator(eval.aggs[a].spec)
	}
	return s
}

// NextBatch folds whole input batches until at least size groups finished
// (or the input ended), so an output batch can exceed size by less than one
// input batch.
func (s *streamAggIter) NextBatch() (*vector.Batch, error) {
	for c := range s.cols {
		if vector.Poisoned() {
			vector.Poison(s.cols[c])
		}
		s.cols[c] = s.cols[c][:0]
	}
	for !s.done && len(s.cols[0]) < s.size {
		b, err := s.in.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			s.done = true
			if s.open {
				s.emit()
			}
			break
		}
		if err := s.absorb(b); err != nil {
			return nil, err
		}
	}
	if len(s.cols[0]) == 0 {
		return nil, nil
	}
	s.out = vector.Batch{Cols: s.cols}
	return &s.out, nil
}

// absorb folds one batch's rows into the open group, emitting it on each key
// change. A key that is not an integer or that decreases means the order
// property was derived wrongly: fail the query rather than mis-group.
func (s *streamAggIter) absorb(b *vector.Batch) error {
	gvals, avals, ovals, err := s.eval.evalBatch(b)
	if err != nil {
		return err
	}
	keys := gvals[0]
	for p, n := 0, b.NumRows(); p < n; p++ {
		i := b.ActiveAt(p)
		k := keys[i]
		if k.Kind() != variant.KindInt || (s.open && k.AsInt() < s.key.AsInt()) {
			return fmt.Errorf("engine: internal error: streaming aggregate key %s after %s is not a non-decreasing integer (order property derived wrongly)", k, s.key)
		}
		if !s.open || k.AsInt() != s.key.AsInt() {
			if s.open {
				s.emit()
			}
			s.key, s.open = k, true
		}
		s.eval.loadRow(avals, ovals, i)
		for a, acc := range s.accs {
			if err := acc.add(s.eval.rowA[a], s.eval.rowO[a]); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit appends the open group's row to the output columns and resets the
// accumulators for the next group.
func (s *streamAggIter) emit() {
	s.cols[0] = append(s.cols[0], s.key)
	for a, acc := range s.accs {
		s.cols[1+a] = append(s.cols[1+a], acc.result(s.eval.aggs[a].descs))
		acc.reset()
	}
}

// rewind readies the operator for a fresh input — an exchange worker's next
// morsel — after the previous one ended with its last group emitted.
func (s *streamAggIter) rewind() { s.done, s.open = false, false }

func (s *streamAggIter) Close() { s.in.Close() }

// --- joins -------------------------------------------------------------------

// prepareJoin builds a hash join. An equi-join with stateless build keys
// takes the query's parallelism as its build workers, which partition the
// build side when it is large enough (buildParallel); a stateful key must
// see the build rows in order, on one worker.
func prepareJoin(x *JoinNode, ctx *execContext) (batchIter, error) {
	buildWorkers := 1
	if ctx.parallelism > 1 && len(x.RightKeys) > 0 && !anyExprStateful(x.RightKeys) {
		buildWorkers = ctx.parallelism
		ctx.metrics.ParallelBreakers++
	}
	left, err := prepare(x.Left, ctx)
	if err != nil {
		return nil, err
	}
	right, err := prepare(x.Right, ctx)
	if err != nil {
		left.Close()
		return nil, err
	}
	// Both children are live from here on; every compile failure below must
	// release them before bailing out.
	fail := func(err error) (batchIter, error) {
		left.Close()
		right.Close()
		return nil, err
	}
	combined := x.Schema()
	var residual evalFn
	if x.Residual != nil {
		residual, err = compileExpr(combined, x.Residual)
		if err != nil {
			return fail(err)
		}
	}
	var onFn evalFn
	if x.On != nil {
		onFn, err = compileExpr(combined, x.On)
		if err != nil {
			return fail(err)
		}
	}
	// Probe keys evaluate vectorized over the streamed left batches; build
	// keys evaluate row-wise over the materialized right side.
	leftKeys, err := compileVecs(ctx, x.Left.Schema(), x.LeftKeys)
	if err != nil {
		return fail(err)
	}
	rightKeys := make([]evalFn, len(x.RightKeys))
	for i, k := range x.RightKeys {
		rightKeys[i], err = compileExpr(x.Right.Schema(), k)
		if err != nil {
			return fail(err)
		}
	}
	leftWidth := len(x.Left.Schema().Names)
	rightWidth := len(x.Right.Schema().Names)
	return &joinIter{
		kind: x.Kind, left: left, right: right,
		leftKeys: leftKeys, rightKeys: rightKeys,
		rightKeyExprs: x.RightKeys, rightSchema: x.Right.Schema(),
		residual: residual, on: onFn,
		leftWidth: leftWidth, rightWidth: rightWidth,
		buildWorkers: buildWorkers, ectx: ctx, mem: ctx.opMemFor(x),
		bld:      vector.NewBuilder(leftWidth+rightWidth, ctx.batchSize),
		combined: make([]variant.Value, leftWidth+rightWidth),
	}, nil
}

// buildList is one join key's build rows in input order. Entries are held
// by pointer so appending to a hot key never re-allocates its map key. When
// the build side spilled, offs holds the rows' spill-file offsets instead.
type buildList struct {
	rows [][]variant.Value
	offs []int64
}

type joinIter struct {
	kind          string
	left          batchIter
	right         batchIter
	leftKeys      *exprDAG
	rightKeys     []evalFn
	rightKeyExprs []sqlast.Expr // recompiled per build worker
	rightSchema   *Schema
	residual      evalFn
	on            evalFn
	leftWidth     int
	rightWidth    int
	buildWorkers  int
	ectx          *execContext
	mem           *opMem
	bld           *vector.Builder

	built     bool
	parts     []map[string]*buildList // disjoint hash partitions of the build side
	rightRows [][]variant.Value       // CROSS mode
	spillRun  *storage.SpillRun       // non-nil once the build side spilled
	buildRows int64
	keyBuf    []byte
	combined  []variant.Value // one output row under assembly
	inDone    bool
}

// build drains and closes the build side, then constructs the partitioned
// hash table — in parallel when the join was bound with build workers and
// the build side is large enough to amortize them. The build
// side is closed exactly once here (and nilled so Close stays idempotent).
func (j *joinIter) build() error {
	rows, err := j.drainBuild()
	j.right.Close()
	j.right = nil
	if err != nil {
		return err
	}
	switch {
	case len(j.rightKeys) == 0:
		j.rightRows = rows
	case j.spillRun != nil:
		// The offset index was built incrementally during the spilling drain.
		j.mem.st.Pipelines = 1
		j.mem.st.MergeParts = 1
		j.mem.st.LocalRows = j.buildRows
		j.mem.st.MergedGroups = int64(len(j.parts[0]))
	case j.buildWorkers > 1 && len(rows) >= minParallelBuildRows:
		if err := j.buildParallel(rows); err != nil {
			return err
		}
	default:
		if err := j.buildSequential(rows); err != nil {
			return err
		}
	}
	j.built = true
	return nil
}

// drainBuild materializes the build side under the memory budget. Once the
// budget trips (and the join is keyed), the drain switches to spilling:
// every surviving build row goes to an offset-indexed run and the hash index
// maps key bytes to file offsets, appended in input order — exactly the
// candidate order buildSequential produces in memory. CROSS joins have no
// key to index by and always stay in memory.
func (j *joinIter) drainBuild() ([][]variant.Value, error) {
	var rows [][]variant.Value
	var w *storage.RunWriter
	var enc []byte
	for {
		b, err := j.right.NextBatch()
		if err != nil {
			if w != nil {
				w.Abort()
			}
			return nil, err
		}
		if b == nil {
			break
		}
		if w == nil {
			rows = b.AppendRows(rows)
			// Charge unconditionally so CROSS builds count against the budget
			// and show up in MemPeakBytes; only keyed joins can act on the
			// overflow by spilling (a CROSS join has no key to index runs by).
			over := j.mem.enabled() && j.mem.charge(activeRowsBytes(b))
			if over && len(j.rightKeys) > 0 {
				if w, err = j.startBuildSpill(rows); err != nil {
					return nil, err
				}
				rows = nil
				j.mem.releaseAll()
			}
			continue
		}
		var rowBuf []variant.Value
		var rowErr error
		b.ForEach(func(i int) {
			if rowErr != nil {
				return
			}
			rowBuf = b.Row(i, rowBuf)
			rowErr = j.spillBuildRow(w, rowBuf, &enc)
		})
		if rowErr != nil {
			w.Abort()
			return nil, rowErr
		}
	}
	if w != nil {
		run, err := w.Finish()
		if err != nil {
			return nil, err
		}
		j.spillRun = run
		j.mem.noteSpill(run.Bytes())
	}
	return rows, nil
}

// startBuildSpill opens the build spill run and replays the rows drained so
// far through the same per-row path the rest of the stream will take, so the
// file and index hold the full build side in input order.
func (j *joinIter) startBuildSpill(rows [][]variant.Value) (*storage.RunWriter, error) {
	w, err := storage.NewRunWriter("join")
	if err != nil {
		return nil, err
	}
	j.parts = []map[string]*buildList{make(map[string]*buildList)}
	var enc []byte
	for _, row := range rows {
		if err := j.spillBuildRow(w, row, &enc); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w, nil
}

// spillBuildRow indexes and writes one build row. NULL-key rows are dropped
// entirely — they can never match an equi-join probe, exactly as
// buildSequential skips them.
func (j *joinIter) spillBuildRow(w *storage.RunWriter, row []variant.Value, enc *[]byte) error {
	j.buildRows++
	j.keyBuf = j.keyBuf[:0]
	for _, fn := range j.rightKeys {
		v, err := fn(row)
		if err != nil {
			return err
		}
		if v.IsNull() {
			return nil
		}
		j.keyBuf = v.AppendGroupKey(j.keyBuf)
	}
	*enc = encodeRowValues((*enc)[:0], row)
	off, err := w.WriteRecord(*enc)
	if err != nil {
		return err
	}
	m := j.parts[0]
	e, ok := m[string(j.keyBuf)]
	if !ok {
		e = &buildList{}
		m[string(j.keyBuf)] = e
	}
	e.offs = append(e.offs, off)
	return nil
}

// fetchSpilled materializes one candidate list from the build spill file, in
// the stored (input) order.
func (j *joinIter) fetchSpilled(offs []int64) ([][]variant.Value, error) {
	rows := make([][]variant.Value, len(offs))
	for i, off := range offs {
		rec, err := j.spillRun.ReadRecordAt(off)
		if err != nil {
			return nil, err
		}
		row, err := decodeRowValues(rec, j.rightWidth)
		if err != nil {
			return nil, err
		}
		rows[i] = row
	}
	return rows, nil
}

func (j *joinIter) buildSequential(rows [][]variant.Value) error {
	m := make(map[string]*buildList)
	j.parts = []map[string]*buildList{m}
	var kb []byte
	for _, row := range rows {
		kb = kb[:0]
		skip := false
		for _, fn := range j.rightKeys {
			v, err := fn(row)
			if err != nil {
				return err
			}
			if v.IsNull() {
				skip = true // NULL keys never match in equi-joins
				break
			}
			kb = v.AppendGroupKey(kb)
		}
		if skip {
			continue
		}
		e, ok := m[string(kb)]
		if !ok {
			e = &buildList{}
			m[string(kb)] = e
		}
		e.rows = append(e.rows, row)
	}
	j.mem.st.Pipelines = 1
	j.mem.st.MergeParts = 1
	j.mem.st.LocalRows = int64(len(rows))
	j.mem.st.MergedGroups = int64(len(m))
	return nil
}

func (j *joinIter) NextBatch() (*vector.Batch, error) {
	if !j.built {
		if err := j.build(); err != nil {
			return nil, err
		}
	}
	for {
		if b := j.bld.Pop(); b != nil {
			return b, nil
		}
		if j.inDone {
			return j.bld.Flush(), nil
		}
		b, err := j.left.NextBatch()
		if err != nil {
			return nil, err
		}
		if b == nil {
			j.inDone = true
			continue
		}
		if err := j.probeBatch(b); err != nil {
			return nil, err
		}
	}
}

// probeBatch joins every active left row of one batch against the built
// right side, appending output rows to the builder. Probing is lock-free:
// the partitioned tables are read-only after build.
func (j *joinIter) probeBatch(b *vector.Batch) error {
	var kcols [][]variant.Value
	if j.parts != nil {
		var err error
		if kcols, err = j.leftKeys.eval(b); err != nil {
			return err
		}
	}
	combined := j.combined
	var rowErr error
	b.ForEach(func(i int) {
		if rowErr != nil {
			return
		}
		candidates := j.rightRows
		if j.parts != nil {
			j.keyBuf = j.keyBuf[:0]
			nullKey := false
			for k := range kcols {
				v := kcols[k][i]
				if v.IsNull() {
					nullKey = true
					break
				}
				j.keyBuf = v.AppendGroupKey(j.keyBuf)
			}
			candidates = nil
			if !nullKey {
				m := j.parts[bucketOfKey(j.keyBuf, len(j.parts))]
				if e, ok := m[string(j.keyBuf)]; ok {
					if j.spillRun != nil {
						candidates, rowErr = j.fetchSpilled(e.offs)
						if rowErr != nil {
							return
						}
					} else {
						candidates = e.rows
					}
				}
			}
		}
		for c := range b.Cols {
			combined[c] = b.Value(c, i)
		}
		emitted := false
		for _, rightRow := range candidates {
			copy(combined[j.leftWidth:], rightRow)
			ok, err := j.matches(combined)
			if err != nil {
				rowErr = err
				return
			}
			if ok {
				emitted = true
				j.bld.Append(combined)
			}
		}
		if !emitted && j.kind == "LEFT OUTER" {
			for c := j.leftWidth; c < len(combined); c++ {
				combined[c] = variant.Null
			}
			j.bld.Append(combined)
		}
	})
	return rowErr
}

func (j *joinIter) matches(combined []variant.Value) (bool, error) {
	for _, cond := range []evalFn{j.residual, j.on} {
		if cond == nil {
			continue
		}
		v, err := cond(combined)
		if err != nil {
			return false, err
		}
		if v.IsNull() || !truthySQL(v) {
			return false, nil
		}
	}
	return true, nil
}

// Close is idempotent: build already closed (and nilled) the right side, so
// closing a drained join must not touch it again — see the execclose lint
// fixture's earlyCloser pattern and TestJoinCloseIdempotent.
func (j *joinIter) Close() {
	if j.left != nil {
		j.left.Close()
		j.left = nil
	}
	if j.right != nil {
		j.right.Close()
		j.right = nil
	}
	j.spillRun.Close()
	if j.mem != nil {
		j.mem.releaseAll()
	}
}

// --- sort / limit / union -----------------------------------------------------

// prepareSort builds a sort. It takes the query's parallelism as its
// workers, which sort per-worker runs merged stably when the input is large
// enough; the keys evaluate in input order either way, so stateful keys are
// safe.
func prepareSort(x *SortNode, ctx *execContext) (batchIter, error) {
	if ctx.parallelism > 1 {
		ctx.metrics.ParallelBreakers++
	}
	in, err := prepare(x.Input, ctx)
	if err != nil {
		return nil, err
	}
	exprs := make([]sqlast.Expr, len(x.Keys))
	descs := make([]bool, len(x.Keys))
	for i, k := range x.Keys {
		exprs[i], descs[i] = k.Expr, k.Desc
	}
	keys, err := compileVecs(ctx, x.Input.Schema(), exprs)
	if err != nil {
		in.Close()
		return nil, err
	}
	return &sortIter{
		in: in, keys: keys, descs: descs,
		width: len(x.Input.Schema().Names), bsize: ctx.batchSize,
		ectx: ctx, mem: ctx.opMemFor(x),
	}, nil
}

type sortIter struct {
	in    batchIter
	keys  *exprDAG
	descs []bool
	width int
	bsize int
	ectx  *execContext
	mem   *opMem
	runs  []*storage.SpillRun // sorted on-disk chunks, in input order
	out   batchIter
}

func (s *sortIter) NextBatch() (*vector.Batch, error) {
	if s.out == nil {
		err := s.materialize()
		s.in = nil // materialize closed it
		if err != nil {
			return nil, err
		}
	}
	return s.out.NextBatch()
}

// sortRef addresses one row of the drained input: batch index + physical
// row index.
type sortRef struct{ b, i int }

// materialize drains the input (closing it as soon as the drain finishes,
// so morsel scan workers release promptly), evaluates the sort keys
// batch-wise, and stably sorts the global row index — ties keep their input
// order even when the rows arrived from a parallel scan's ordered merge.
// At parallelism > 1 the comparison sort fans out into per-worker runs joined
// by a stability-preserving multiway merge; key evaluation stays sequential
// in input order either way.
//
// Under a memory limit the buffered chunk spills: it is stably sorted and
// written (rows plus their already-evaluated keys — stateful key expressions
// must evaluate exactly once, in input order) as one on-disk run. Runs are
// consecutive input chunks, so the final earliest-run-tiebreak k-way merge
// equals the global stable sort byte for byte.
func (s *sortIter) materialize() error {
	defer s.in.Close()
	var batches []*vector.Batch
	var keyCols [][][]variant.Value // [batch][key] -> physical-aligned values
	var refs []sortRef
	// less is pure (reads only the detached key vectors), so parallel run
	// sorting shares it safely across workers.
	less := func(ra, rb sortRef) bool {
		for k := range s.descs {
			c := variant.Compare(keyCols[ra.b][k][ra.i], keyCols[rb.b][k][rb.i])
			if s.descs[k] {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	}
	sortChunk := func() error {
		if s.ectx.parallelism > 1 && len(refs) >= minParallelSortRows {
			var err error
			refs, err = parallelSortRefs(s.ectx, refs, less, s.ectx.parallelism, s.mem.st)
			return err
		}
		sort.SliceStable(refs, func(a, b int) bool { return less(refs[a], refs[b]) })
		return nil
	}
	flushRun := func() error {
		if err := sortChunk(); err != nil {
			return err
		}
		run, err := writeSortRun(batches, keyCols, refs, s.width)
		if err != nil {
			return err
		}
		s.runs = append(s.runs, run)
		s.mem.noteSpill(run.Bytes())
		s.mem.releaseAll()
		batches, keyCols, refs = nil, nil, nil
		return nil
	}
	for {
		b, err := s.in.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		vals, err := s.keys.eval(b)
		if err != nil {
			return err
		}
		// Key vectors and the batch itself outlive the drain loop (the global
		// sort reads them at the end), so both are detached: from the key
		// registers, and from whatever the input operator recycles.
		kc := make([][]variant.Value, len(vals))
		for k := range vals {
			kc[k] = append([]variant.Value(nil), vals[k]...)
		}
		b = b.Detach()
		bi := len(batches)
		batches = append(batches, b)
		keyCols = append(keyCols, kc)
		b.ForEach(func(i int) {
			refs = append(refs, sortRef{b: bi, i: i})
		})
		if s.mem.enabled() && s.mem.charge(activeRowsBytes(b)) {
			if err := flushRun(); err != nil {
				return err
			}
		}
	}
	if len(s.runs) == 0 {
		if err := sortChunk(); err != nil {
			return err
		}
		rows := make([][]variant.Value, len(refs))
		for n, r := range refs {
			row := make([]variant.Value, s.width)
			for c := 0; c < s.width; c++ {
				row[c] = batches[r.b].Value(c, r.i)
			}
			rows[n] = row
		}
		s.out = &rowsIter{rows: rows, width: s.width, size: s.bsize}
		return nil
	}
	if len(refs) > 0 {
		if err := flushRun(); err != nil {
			return err
		}
	}
	s.out = newSortRunMerge(s.runs, s.descs, s.width, s.bsize)
	return nil
}

func (s *sortIter) Close() {
	if s.in != nil {
		s.in.Close()
		s.in = nil
	}
	if s.out != nil {
		s.out.Close()
	}
	for _, r := range s.runs {
		r.Close()
	}
	s.runs = nil
	if s.mem != nil {
		s.mem.releaseAll()
	}
}

type limitIter struct {
	in        batchIter
	remaining int64
}

func (l *limitIter) NextBatch() (*vector.Batch, error) {
	if l.remaining <= 0 {
		return nil, nil
	}
	b, err := l.in.NextBatch()
	if err != nil || b == nil {
		return nil, err
	}
	n := int64(b.NumRows())
	if n > l.remaining {
		b.Truncate(int(l.remaining))
		n = l.remaining
	}
	l.remaining -= n
	return b, nil
}

func (l *limitIter) Close() { l.in.Close() }

type unionIter struct {
	iters []batchIter
	idx   int
}

func (u *unionIter) NextBatch() (*vector.Batch, error) {
	for u.idx < len(u.iters) {
		b, err := u.iters[u.idx].NextBatch()
		if err != nil {
			return nil, err
		}
		if b != nil {
			return b, nil
		}
		u.idx++
	}
	return nil, nil
}

func (u *unionIter) Close() {
	for _, it := range u.iters {
		it.Close()
	}
}
