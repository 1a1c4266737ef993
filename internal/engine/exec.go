package engine

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strconv"
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
	// morselRows overrides minMorselRows, the exchange's morsel size
	// (Engine.morselRows, a test hook; 0 keeps the default).
	morselRows int
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
	// typedOff keeps the expression DAGs on variants (WithTypedColumns).
	typedOff bool
	// forceBuild forces the joins that may build left to one side
	// (Engine.forceBuild, a test hook).
	forceBuild buildSide
	// byteKeyedJoin keys every join by bytes and gathers every probe
	// (Engine.byteKeyedJoin, a test hook).
	byteKeyedJoin bool
	// joins maps each join prepared so far to its operator, so an exchange
	// whose segment probes it can build it before fanning out (driver
	// goroutine only, at bind).
	joins map[*JoinNode]*joinIter
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

// pinnedRows counts the rows of t's pinned snapshot, pinning it on first use.
func (c *execContext) pinnedRows(t *storage.Table) int64 {
	var n int64
	for _, p := range c.pinSnapshot(t).Parts {
		n += int64(p.NumRows())
	}
	return n
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
	c.metrics.PartitionsTotal += int64(totalParts)
	c.metrics.PartitionsPruned += int64(pruned)
	c.metrics.BytesScanned += bytes
	st.PartitionsTotal += totalParts
	st.PartitionsPruned += pruned
	st.BytesScanned += bytes
}

// Storage-path counters, updated atomically: expression kernels run on
// morsel workers and the parallel breakers' goroutines. All three methods
// are nil-safe so compiled expressions also work without an execContext
// (benchmarks, tests).

// countTypedCols records n typed vectors read by typed kernels.
func (c *execContext) countTypedCols(n int) {
	if c != nil {
		atomic.AddInt64(&c.typedCols, int64(n))
	}
}

// countFallbackCols records n typed vectors converted to variants.
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
		// Materialized-view suffix replay: the aggregate's finalized groups
		// feed the stateless operators above it (views.go).
		return x.src, nil
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
	var input Node
	inputSlots(n, func(in *Node) { input = *in }) // a stage has one input
	in, err := prepare(input, ctx)
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
	if vector.Poisoned() {
		vector.PoisonSel(f.sel)
	}
	sel, err := f.cond.selectTrue(b, f.sel[:0])
	if err != nil {
		return false, err
	}
	f.sel = sel
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
// rows, then every parent column is gathered through the index vector, typed
// when it arrives typed. An output batch never spans two input batches (the
// first would be gone), and a cursor (pos, off) resumes mid-batch — mid-array
// — when an expansion overflows size. With typed registers on, INDEX is an
// int64 register; over ARRAY_RANGE(lo, hi) (rng) the DAG evaluates the two
// bounds instead of the array, and VALUE is an int64 register of the integers
// the array would hold, which is never built. With a lower bound (from, the
// DAG's last root) each row's expansion starts at the first position the
// bound admits; the positions skipped never become rows, and the ones kept
// keep their INDEX and VALUE.
type flattenIter struct {
	in     batchIter
	input  *exprDAG
	outer  bool
	rng    bool
	from   *FlattenBound
	size   int
	cur    *vector.Batch   // input batch under expansion
	arrs   []variant.Value // its arrays, aligned with cur's physical rows
	los    []int64         // rng: each row's first integer, aligned likewise
	spans  []int           // rng: each row's element count
	starts []int           // from: each row's first position, aligned likewise
	pos    int             // next active row of cur
	off    int             // next element of that row's array
	parent []int
	// Storage per output column — input width + 2, as the output adds VALUE
	// and INDEX — variant and, with typed registers on, typed.
	cols  [][]variant.Value
	tcols []vector.TypedCol
	out   vector.Batch
}

func newFlattenIter(in batchIter, input *exprDAG, outer, rng bool, width, size int) *flattenIter {
	f := &flattenIter{in: in, input: input, outer: outer, rng: rng, size: size, cols: make([][]variant.Value, width+2)}
	f.out.Cols = make([][]variant.Value, width+2)
	if input.typed {
		f.tcols, f.out.Typed = make([]vector.TypedCol, width+2), make([]*vector.TypedCol, width+2)
	}
	return f
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
	if err := f.evalInputs(b); err != nil {
		return err
	}
	f.cur, f.pos, f.off = b, 0, 0
	return nil
}

// evalInputs evaluates the FLATTEN's DAG over b: the arrays, or a range
// FLATTEN's bounds, then each row's start under a lower bound.
func (f *flattenIter) evalInputs(b *vector.Batch) error {
	d := f.input
	defer d.flush()
	if err := d.begin(b); err != nil {
		return err
	}
	if f.rng {
		if err := f.bounds(b); err != nil {
			return err
		}
	} else {
		f.arrs = d.load(b, d.roots[0])
	}
	if f.from != nil {
		f.startsOf(b)
	}
	return nil
}

// bounds applies ARRAY_RANGE's rules to every active row of b before any row
// expands, as building the arrays would: each row's first integer and
// element count (none for NULL).
func (f *flattenIter) bounds(b *vector.Batch) error {
	d := f.input
	lo, lol := d.arg(b, d.roots[0])
	hi, hil := d.arg(b, d.roots[1])
	f.los, f.spans = slices.Grow(f.los[:0], d.n)[:d.n], slices.Grow(f.spans[:0], d.n)[:d.n]
	for _, i := range d.active(b) {
		first, n, _, err := rangeBounds(at(lo, lol, i), at(hi, hil, i))
		if err != nil {
			return err
		}
		f.los[i], f.spans[i] = first, n
	}
	return nil
}

// startsOf computes each active row's first position under the lower bound
// (flattenStart), reading a typed bound without converting it. A VALUE bound
// is relative to the array's first integer: the range's lo, or element 0 of
// the ARRAY_RANGE array built with typed registers off.
func (f *flattenIter) startsOf(b *vector.Batch) {
	d := f.input
	root := d.roots[len(d.roots)-1]
	tc := d.forms.Typed[root]
	var vals []variant.Value
	var lit variant.Value
	if tc == nil {
		vals, lit = d.arg(b, root)
	}
	f.starts = slices.Grow(f.starts[:0], d.n)[:d.n]
	for _, i := range d.active(b) {
		a := at(vals, lit, i)
		if tc != nil {
			a = tc.ValueAt(i)
		}
		base := int64(0)
		switch {
		case !f.from.Value:
		case f.rng:
			base = f.los[i]
		default:
			if first := f.arrs[i].Index(0); first.Kind() == variant.KindInt {
				base = first.AsInt()
			} else {
				a = variant.Null // no integers to bound
			}
		}
		f.starts[i] = flattenStart(a, f.from.Strict, base)
	}
}

// expand fills f.out with the next output rows of f.cur, reporting false
// once the batch is exhausted.
func (f *flattenIter) expand() bool {
	b, w, typed := f.cur, len(f.cols)-2, f.tcols != nil
	if f.parent == nil {
		f.parent = make([]int, 0, f.size)
	}
	if vector.Poisoned() {
		vector.PoisonSel(f.parent)
		for c := range f.cols {
			vector.Poison(f.cols[c])
			if typed {
				vector.PoisonTyped(&f.tcols[c])
			}
		}
	}
	// VALUE and INDEX: variant vectors, or int64 registers filled by position.
	var value, index []variant.Value
	var vals, idx []int64
	if typed {
		f.tcols[w+1].Reset(vector.TypedInt64, f.size)
		idx = f.tcols[w+1].Ints()
	} else {
		index = f.store(w + 1)
	}
	if f.rng {
		f.tcols[w].Reset(vector.TypedInt64, f.size)
		vals = f.tcols[w].Ints()
	} else {
		value = f.store(w)
	}
	parent := f.parent[:0]
	for rows := b.NumRows(); f.pos < rows && len(parent) < f.size; {
		i := b.ActiveAt(f.pos)
		var elems []variant.Value
		n := 0
		if f.rng {
			n = f.spans[i]
		} else {
			elems = f.arrs[i].AsArray() // nil unless an array
			n = len(elems)
		}
		if f.from != nil {
			f.off = max(f.off, min(f.starts[i], n))
		}
		if n == 0 {
			if f.outer {
				// OUTER flatten keeps the row with NULL VALUE/INDEX.
				if f.rng {
					f.tcols[w].SetNull(len(parent))
				} else {
					value = append(value, variant.Null)
				}
				if typed {
					f.tcols[w+1].SetNull(len(parent))
				} else {
					index = append(index, variant.Null)
				}
				parent = append(parent, i)
			}
			f.pos++
			continue
		}
		take := min(n-f.off, f.size-len(parent))
		if !f.rng {
			value = append(value, elems[f.off:f.off+take]...)
		}
		for k := f.off; k < f.off+take; k++ {
			switch {
			case f.rng:
				vals[len(parent)], idx[len(parent)] = f.los[i]+int64(k), int64(k)
			case typed:
				idx[len(parent)] = int64(k)
			default:
				index = append(index, variant.Int(int64(k)))
			}
			parent = append(parent, i)
		}
		if f.off += take; f.off == n {
			f.pos, f.off = f.pos+1, 0
		}
	}
	f.parent, f.cols[w], f.cols[w+1] = parent, value, index
	if len(parent) == 0 {
		return false
	}
	f.out.Sel = nil
	f.emit(w, f.rng, value)
	f.emit(w+1, typed, index)
	for c := 0; c < w; c++ {
		if tc := b.TypedCol(c); typed && tc != nil && tc.Kind() != vector.TypedString {
			tc.Gather(parent, &f.tcols[c])
			f.emit(c, true, nil)
			continue
		}
		f.cols[c] = b.Gather(c, parent, f.store(c))
		f.emit(c, false, f.cols[c])
	}
	return true
}

// store returns output column c's variant storage, emptied; on first use it
// allocates the storage at its full size.
func (f *flattenIter) store(c int) []variant.Value {
	if f.cols[c] == nil {
		f.cols[c] = make([]variant.Value, 0, f.size)
	}
	return f.cols[c][:0]
}

// emit sets output column c to its typed register, shrunk to the batch's
// rows, or to the variant vector vals.
func (f *flattenIter) emit(c int, typed bool, vals []variant.Value) {
	if typed {
		f.tcols[c].SetLen(len(f.parent))
		f.out.Cols[c], f.out.Typed[c] = nil, &f.tcols[c]
		return
	}
	f.out.Cols[c] = vals
	if f.out.Typed != nil {
		f.out.Typed[c] = nil
	}
}

func (f *flattenIter) Close() { f.in.Close() }

// --- aggregation --------------------------------------------------------------

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
	// The DAG's outputs over the batch under evaluation, typed ones read in
	// place (exprDAG.evalTyped), and one row's worth of them (rowO[a] is nil
	// unless aggregate a has WITHIN GROUP keys; accumulators copy what they
	// keep, so the row scratch is reused).
	outs       vector.Batch
	rowG, rowA []variant.Value
	rowO       [][]variant.Value
}

// compileAggEval compiles an aggregate's expressions against its input
// schema.
func compileAggEval(ctx *execContext, x *AggregateNode) (*aggEval, error) {
	exprs := append([]sqlast.Expr(nil), x.GroupBy...)
	aggs := make([]compiledAgg, len(x.Aggs))
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
			rowO[i] = make([]variant.Value, len(ca.order))
		}
		aggs[i] = ca
	}
	dag, err := compileVecs(ctx, x, x.Input.Schema(), exprs)
	if err != nil {
		return nil, err
	}
	return &aggEval{
		dag: dag, ngroups: len(x.GroupBy), aggs: aggs, mergeable: aggsMergeWhy(x.Aggs) == "",
		rowG: make([]variant.Value, len(x.GroupBy)), rowA: make([]variant.Value, len(aggs)),
		rowO: rowO,
	}, nil
}

// aggGroup is one group's accumulated state.
type aggGroup struct {
	key  string // canonical binary group key (retained for the merge map)
	keys []variant.Value
	accs []accumulator
}

// aggTable is one hash-aggregation table keyed by the canonical binary
// group key. Lookups reuse keyBuf and only allocate the key string on first
// insertion, so steady-state grouping is allocation-free per row.
type aggTable struct {
	aggs   []compiledAgg
	groups map[string]*aggGroup
	order  []*aggGroup // insertion order
	keyBuf []byte
	rows   int64 // input rows folded (phase-1 accounting)
}

func newAggTable(aggs []compiledAgg) *aggTable {
	return &aggTable{aggs: aggs, groups: make(map[string]*aggGroup)}
}

func (t *aggTable) insert(keyBytes []byte, keys []variant.Value) *aggGroup {
	g := &aggGroup{key: string(keyBytes), keys: keys, accs: make([]accumulator, len(t.aggs))}
	for i := range t.aggs {
		g.accs[i] = newAccumulator(t.aggs[i].spec)
	}
	t.groups[g.key] = g
	t.order = append(t.order, g)
	return g
}

// absorb folds one batch into the table: group keys, aggregate arguments
// and order keys evaluate once per batch, then fold row-wise into the
// accumulators.
func (e *aggEval) absorb(t *aggTable, b *vector.Batch) error {
	if err := e.dag.evalTyped(b, &e.outs); err != nil {
		return err
	}
	var rowErr error
	b.ForEach(func(i int) {
		if rowErr != nil {
			return
		}
		e.loadRow(i)
		rowErr = e.foldRow(t, e.rowG, e.rowA, e.rowO)
	})
	return rowErr
}

// loadRow copies physical row i's group keys, aggregate arguments and WITHIN
// GROUP keys out of the batch-wide outputs into rowG, rowA and rowO — the
// per-row step the hash and the streaming aggregate and the tuple spill
// share.
func (e *aggEval) loadRow(i int) {
	for k := range e.rowG {
		e.rowG[k] = e.outs.Value(k, i)
	}
	for a, ca := range e.aggs {
		var v variant.Value
		if ca.arg >= 0 {
			v = e.outs.Value(ca.arg, i)
		}
		e.rowA[a] = v
		for j, r := range ca.order {
			e.rowO[a][j] = e.outs.Value(r, i)
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

// groupsIter emits finalized groups — each group's keys, then its
// accumulators' results — as dense batches of up to size rows, written a
// column at a time into fresh vectors, so its batches are stable. The hash
// aggregate and a materialized view emit through it.
type groupsIter struct {
	groups []*aggGroup
	nkeys  int
	aggs   []compiledAgg
	size   int
	pos    int
}

// newGroupsIter emits groups; a global aggregation (no keys) over an empty
// input emits one row of empty accumulators.
func newGroupsIter(groups []*aggGroup, nkeys int, aggs []compiledAgg, size int) *groupsIter {
	if nkeys == 0 && len(groups) == 0 {
		t := newAggTable(aggs)
		t.insert(nil, nil)
		groups = t.order
	}
	return &groupsIter{groups: groups, nkeys: nkeys, aggs: aggs, size: size}
}

func (g *groupsIter) NextBatch() (*vector.Batch, error) {
	part := g.groups[g.pos:min(g.pos+g.size, len(g.groups))]
	if len(part) == 0 {
		return nil, nil
	}
	g.pos += len(part)
	out := &vector.Batch{Cols: make([][]variant.Value, g.nkeys+len(g.aggs))}
	for c := range g.nkeys {
		col := make([]variant.Value, len(part))
		for r, grp := range part {
			col[r] = grp.keys[c]
		}
		out.Cols[c] = col
	}
	for a, ca := range g.aggs {
		col := make([]variant.Value, len(part))
		for r, grp := range part {
			col[r] = grp.accs[a].result(ca.descs)
		}
		out.Cols[g.nkeys+a] = col
	}
	return out, nil
}

func (g *groupsIter) Close() {}

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

func newAggSpan(aggs []compiledAgg) *aggSpan {
	return &aggSpan{table: newAggTable(aggs)}
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
	s.table = newAggTable(s.table.aggs)
	return nil
}

// folded returns the input rows and the groups the span's tables folded.
func (s *aggSpan) folded() (rows, groups int64) {
	return s.rows + s.table.rows, s.groups + int64(len(s.table.order))
}

// mergeInto folds the span's state runs, then its live table, into m.
func (s *aggSpan) mergeInto(ctx *execContext, m *aggMerger) error {
	for _, r := range s.runs {
		if err := m.foldRun(ctx, r, s.table.aggs); err != nil {
			return err
		}
	}
	for _, g := range s.table.order {
		if err := m.fold(g); err != nil {
			return err
		}
	}
	return nil
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
// (the aggsMergeWhy proof). Each source lists its groups in insertion order,
// so a group first arrives where the sequential aggregate first saw it, and
// appending it there keeps out in first-seen order.
type aggMerger struct {
	seen map[string]*aggGroup
	out  []*aggGroup
}

func (m *aggMerger) fold(g *aggGroup) error {
	dst, ok := m.seen[g.key]
	if !ok {
		if m.seen == nil {
			m.seen = make(map[string]*aggGroup)
		}
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

// mergeSpans is phase 2: one ordered pass over the spans' sources. One span
// that never spilled is already in first-seen order — the unspilled
// sequential aggregate pays no merge pass.
func mergeSpans(ctx *execContext, spans []*aggSpan) ([]*aggGroup, error) {
	if len(spans) == 1 && len(spans[0].runs) == 0 {
		return spans[0].table.order, nil
	}
	var m aggMerger
	for _, s := range spans {
		if err := s.mergeInto(ctx, &m); err != nil {
			return nil, err
		}
	}
	return m.out, nil
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
	out  *groupsIter
}

func (a *aggIter) NextBatch() (*vector.Batch, error) {
	if a.out == nil {
		out, err := a.run()
		a.in = nil // run closed it
		if err != nil {
			return nil, err
		}
		a.out = out
	}
	return a.out.NextBatch()
}

// run is the driver: phase 1 folds one span from the sequential pipeline or,
// when aggFanOut fans the aggregate out, a span per worker claim
// (parallelAgg); phase 2 merges them into the groups it emits.
func (a *aggIter) run() (*groupsIter, error) {
	ctx, e := a.ctx, a.eval
	mem := ctx.opMemFor(a.x)
	defer mem.releaseAll()
	var spans []*aggSpan
	defer func() {
		for _, s := range spans {
			s.discard()
		}
	}()
	fanned := aggFanOut(ctx, a.x)
	var err error
	if fanned {
		a.in.Close() // the sequential pipeline, unstarted
		spans, err = parallelAgg(ctx, a.x, mem)
	} else {
		spans = []*aggSpan{newAggSpan(e.aggs)}
		err = spans[0].fold(a.in, e, mem)
		a.in.Close()
	}
	if err != nil {
		return nil, err
	}
	start := time.Now()
	groups, err := mergeSpans(ctx, spans)
	if err != nil {
		return nil, err
	}
	mergeWall := time.Since(start)
	out := newGroupsIter(groups, e.ngroups, e.aggs, ctx.batchSize)
	if fanned {
		mem.st.MergedGroups, mem.st.MergeWallUS = int64(len(out.groups)), mergeWall.Microseconds()
	}
	return out, nil
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
	if err := s.eval.dag.evalTyped(b, &s.eval.outs); err != nil {
		return err
	}
	for p, n := 0, b.NumRows(); p < n; p++ {
		i := b.ActiveAt(p)
		s.eval.loadRow(i)
		k := s.eval.rowG[0]
		if k.Kind() != variant.KindInt || (s.open && k.AsInt() < s.key.AsInt()) {
			return fmt.Errorf("engine: internal error: streaming aggregate key %s after %s is not a non-decreasing integer (order property derived wrongly)", k, s.key)
		}
		if !s.open || k.AsInt() != s.key.AsInt() {
			if s.open {
				s.emit()
			}
			s.key, s.open = k, true
		}
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

// prepareJoin builds a hash join on the side chooseBuild picks from the pinned
// snapshots. Keys and residual evaluate in input order, so a stateful
// expression needs no special case: a join whose probe is an exchange stage
// reads no row ID (physical.go). It registers the join with ctx, so an
// exchange whose segment probes it builds it before fanning out; a left
// build's right input becomes its match pass (matchStage).
func prepareJoin(x *JoinNode, ctx *execContext) (batchIter, error) {
	left, err := prepare(x.Left, ctx)
	if err != nil {
		return nil, err
	}
	right, err := prepare(x.Right, ctx)
	if err != nil {
		left.Close()
		return nil, err
	}
	exprs, err := compileJoin(ctx, x)
	if err != nil {
		left.Close()
		right.Close()
		return nil, err
	}
	ctx.exprs.add(exprs.stats())
	side := chooseBuild(x, ctx.pinnedRows, ctx.forceBuild)
	j := newJoinIter(ctx, x.Kind, left, right, exprs, len(x.Left.Schema().Names), len(x.Right.Schema().Names), ctx.opMemFor(x))
	j.st, j.byteKeys, j.buildLeft = ctx.statsFor(x), ctx.byteKeyedJoin, side.left
	j.st.build = side
	if side.left {
		m, err := j.matchStage(ctx, x)
		if err != nil {
			j.Close()
			return nil, err
		}
		j.right = m
	}
	if ctx.joins == nil {
		ctx.joins = make(map[*JoinNode]*joinIter)
	}
	ctx.joins[x] = j
	return j, nil
}

// matchStage wraps a left build's right input in the match pass: a matchIter
// over it, which the driver runs, or — when the plan recorded the right
// input's segment (JoinNode.Match) — the exchange that replays the segment
// over morsels with that same match as its last stage, and falls back to the
// driver's.
func (j *joinIter) matchStage(ctx *execContext, x *JoinNode) (batchIter, error) {
	m := &matchIter{in: j.right, b: &j.joinBuilt, keys: j.exprs.right}
	if x.Match == nil {
		return m, nil
	}
	seg, err := newSegmentPlan(ctx, x.Match.Scan, x.Match.Stages, x.Match.Counters, workerBatch(ctx, x.Match.Stages))
	if err != nil {
		return nil, err
	}
	seg.match, seg.matchOf = &j.joinBuilt, x
	return newExchangeIter(ctx, x.Match, seg, m), nil
}

// buildSide forces the build side of every join that may build left
// (Engine.forceBuild, a test hook); buildAuto follows the row bounds.
type buildSide uint8

const (
	buildAuto buildSide = iota
	buildRight
	buildLeft
)

// joinBuild is a join's build side and its inputs' row bounds, -1 where
// unknown.
type joinBuild struct {
	left         bool
	lrows, rrows int64
}

// String renders the choice for EXPLAIN: "build=left rows=2400/48000".
func (b joinBuild) String() string {
	side := "right"
	if b.left {
		side = "left"
	}
	bound := func(n int64) string {
		if n < 0 {
			return "?"
		}
		return strconv.FormatInt(n, 10)
	}
	return fmt.Sprintf("build=%s rows=%s/%s", side, bound(b.lrows), bound(b.rrows))
}

// chooseBuild decides a join's build side from its inputs' row bounds, rows
// counting a table's rows. An INNER equi-join on plain column keys without a
// residual builds its left input when both bounds are known and the left's is
// at most a quarter of the right's; every other join builds its right input.
// The choice never changes the output (joinIter), only what is hashed.
func chooseBuild(x *JoinNode, rows func(*storage.Table) int64, force buildSide) joinBuild {
	b := joinBuild{lrows: rowBound(x.Left, rows), rrows: rowBound(x.Right, rows)}
	if force == buildRight || !leftBuildable(x) {
		return b
	}
	b.left = force == buildLeft || b.lrows >= 0 && b.rrows >= 0 && 4*b.lrows <= b.rrows
	return b
}

// leftBuildable reports whether x may build its left input at all: an INNER
// equi-join on plain column keys without a residual.
func leftBuildable(x *JoinNode) bool {
	if x.Kind != "INNER" || len(x.LeftKeys) == 0 || x.Residual != nil {
		return false
	}
	for _, k := range slices.Concat(x.LeftKeys, x.RightKeys) {
		if _, ok := k.(*sqlast.ColRef); !ok {
			return false
		}
	}
	return true
}

// rowBound bounds the rows n emits: a scan's table rows, passed up through
// filters and projections. Anything else has no bound (-1).
func rowBound(n Node, rows func(*storage.Table) int64) int64 {
	switch x := n.(type) {
	case *ScanNode:
		return rows(x.Table)
	case *FilterNode:
		return rowBound(x.Input, rows)
	case *ProjectNode:
		return rowBound(x.Input, rows)
	}
	return -1
}

// joinExprs is a join's compiled expressions, one DAG each: the keys over the
// left input, the keys over the right, and the residual over the combined
// row. A join without keys has no key DAGs, one without a residual no
// residual DAG.
type joinExprs struct{ left, right, residual *exprDAG }

// compileJoin compiles a join's expressions, for prepare and for EXPLAIN.
func compileJoin(ctx *execContext, x *JoinNode) (joinExprs, error) {
	var e joinExprs
	var err error
	if len(x.LeftKeys) > 0 {
		if e.left, err = compileVecs(ctx, x, x.Left.Schema(), x.LeftKeys); err != nil {
			return e, err
		}
		if e.right, err = compileVecs(ctx, x, x.Right.Schema(), x.RightKeys); err != nil {
			return e, err
		}
	}
	if x.Residual != nil {
		e.residual, err = compileVec(ctx, x, x.Schema(), x.Residual)
	}
	return e, err
}

func (e joinExprs) stats() exprStats {
	var s exprStats
	for _, d := range [...]*exprDAG{e.left, e.right, e.residual} {
		if d != nil {
			s.add(d.stats())
		}
	}
	return s
}

// rowStore retains the rows a join reads back by index: the build rows, or a
// left build's matched right rows. Stored row r lives at locs[r] —
// batch<<32 | row among the retained dense batches until the budget trips,
// then its record's offset in an offset-indexed run, where the retained rows
// move in order and every later row follows.
type rowStore struct {
	width   int
	batches []*vector.Batch // the retained rows; once spilled, the decode scratch
	locs    []int64
	charged int64              // the bytes the retained batches hold
	w       *storage.RunWriter // open from the spill until seal
	run     *storage.SpillRun  // non-nil once sealed after a spill
	decoded int32              // rows decoded into the scratch batch
}

// add stores rows keep of the dense batch b: it retains b or, once spilled,
// writes the rows to the run.
func (s *rowStore) add(b *vector.Batch, keep []int) error {
	if s.w != nil {
		return s.write(b, keep)
	}
	if len(keep) > 0 {
		for _, i := range keep {
			s.locs = append(s.locs, int64(len(s.batches))<<32|int64(i))
		}
		s.batches = append(s.batches, b)
	}
	return nil
}

// charge charges b when add retained it. When that trips the budget a
// spillable store moves to disk; a join without keys has nothing to index a
// run by and stays in memory.
func (s *rowStore) charge(mem *opMem, b *vector.Batch, spillable bool) error {
	if !mem.enabled() || len(s.batches) == 0 || s.batches[len(s.batches)-1] != b {
		return nil
	}
	n := activeRowsBytes(b)
	s.charged += n
	if !mem.charge(n) || !spillable {
		return nil
	}
	return s.spill(mem)
}

// spill opens the store's run and moves the retained rows into it in order,
// each locator becoming its record's offset; the retained batches go and
// their bytes are released.
func (s *rowStore) spill(mem *opMem) error {
	w, err := storage.NewRunWriter("join")
	if err != nil {
		return err
	}
	s.w = w
	var rec []byte
	for r, loc := range s.locs {
		rec = appendRowBinary(rec[:0], s.batches[loc>>32], int(int32(loc)))
		if s.locs[r], err = w.WriteRecord(rec); err != nil {
			return err
		}
	}
	s.batches = nil
	mem.release(s.charged)
	s.charged = 0
	return nil
}

// write appends rows keep of b to the run, locating each by its offset.
func (s *rowStore) write(b *vector.Batch, keep []int) error {
	var rec []byte
	for _, i := range keep {
		rec = appendRowBinary(rec[:0], b, i)
		off, err := s.w.WriteRecord(rec)
		if err != nil {
			return err
		}
		s.locs = append(s.locs, off)
	}
	return nil
}

// seal finishes a spilled store's run and readies the decode scratch.
func (s *rowStore) seal(mem *opMem) error {
	if s.w == nil {
		return nil
	}
	run, err := s.w.Finish()
	s.w = nil
	if err != nil {
		return err
	}
	s.run = run
	mem.noteSpill(run.Bytes())
	s.batches = []*vector.Batch{{Cols: make([][]variant.Value, s.width)}}
	return nil
}

// ref addresses stored row r: a retained row where it lies, a spilled one
// decoded into the scratch batch first, so a consumer pairs with either the
// same way until the next rewind.
func (s *rowStore) ref(r int64) (rowRef, error) {
	loc := s.locs[r]
	if s.run == nil {
		return rowRef{b: int32(loc >> 32), i: int32(loc)}, nil
	}
	rec, err := s.run.ReadRecordAt(loc)
	if err == nil {
		err = decodeRowInto(s.batches[0].Cols, rec)
	}
	s.decoded++
	return rowRef{b: 0, i: s.decoded - 1}, err
}

// typedKinds returns, per column, the typed kind every retained batch holds
// the column in, or -1 where one does not or the store spilled: the kind the
// join's streaming probe gathers the column in.
func (s *rowStore) typedKinds() []int8 {
	kinds := make([]int8, s.width)
	for c := range kinds {
		kinds[c] = -1
		if s.run != nil || len(s.batches) == 0 {
			continue
		}
		first := s.batches[0].TypedCol(c)
		if first == nil {
			continue
		}
		kinds[c] = int8(first.Kind())
		for _, b := range s.batches[1:] {
			if tc := b.TypedCol(c); tc == nil || tc.Kind() != first.Kind() {
				kinds[c] = -1
				break
			}
		}
	}
	return kinds
}

// rewind empties a spilled store's scratch batch for the next output batch.
func (s *rowStore) rewind() {
	if s.run == nil {
		return
	}
	scratch := s.batches[0].Cols
	for c := range scratch {
		if vector.Poisoned() {
			vector.Poison(scratch[c])
		}
		scratch[c] = scratch[c][:0]
	}
	s.decoded = 0
}

// releaseAll returns what the store holds: its run, half-written or
// sealed, and the bytes its retained rows charged.
func (s *rowStore) releaseAll(mem *opMem) {
	if s.w != nil {
		s.w.Abort()
		s.w = nil
	}
	s.run.Close()
	if s.charged > 0 {
		mem.release(s.charged)
		s.charged = 0
	}
}

// storeReplay is a left build's probe input: its stored left rows in drain
// order — the retained dense batches as they are, or once spilled the run's
// records decoded a batch at a time — and then the error that stopped the
// drain, if one did, where the right build's probe would have met it.
type storeReplay struct {
	s    rowStore
	next int
	rd   *storage.RunReader
	size int
	err  error
	ctx  *execContext
	mem  *opMem
}

func (r *storeReplay) NextBatch() (*vector.Batch, error) {
	s := &r.s
	if s.run == nil {
		if r.next == len(s.batches) {
			return nil, r.err
		}
		r.next++
		return s.batches[r.next-1], nil
	}
	if r.rd == nil {
		r.rd = s.run.NewReader()
	}
	b := &vector.Batch{Cols: make([][]variant.Value, s.width)}
	n := 0
	for ; n < r.size && r.next < len(s.locs); n, r.next = n+1, r.next+1 {
		if err := r.ctx.cancelled(); err != nil {
			return nil, err
		}
		rec, err := r.rd.Next()
		if err == nil {
			err = decodeRowInto(b.Cols, rec)
		}
		if err != nil {
			return nil, err
		}
	}
	if n == 0 {
		return nil, r.err
	}
	return b, nil
}

func (r *storeReplay) Close() { r.s.releaseAll(r.mem) }

// joinBuilt is what a hash join's build leaves for its probes: the join's
// shape, the build keys, the rows the candidates index and the table. The
// driver fills it once (joinIter.build); from then on every probe of the
// join — its own, and each exchange worker's probe stage — only reads it.
type joinBuilt struct {
	kind                  string
	leftWidth, rightWidth int
	keys                  buildKeys
	store                 rowStore // the build rows, or a left build's matches
	table                 joinTable
	// stream is set for a right build whose keys are all distinct: every
	// probe goes through emitStream.
	stream bool
	// kinds names, per build column, the typed kind every stored batch holds
	// the column in, or -1: what emitStream gathers it into.
	kinds []int8
}

// joinIter is the hash join. Its first NextBatch builds, on the side
// chooseBuild picked. A right build drains the right input, retaining each
// batch's kept rows as one dense copy, and indexes every key in the join
// table (jointable.go), which chains each key's rows in build order. A left
// build drains the left input the same way and indexes its keys with empty
// chains, then streams the right input's match pass past that table
// (matchRight), retaining only the right rows that match: each key's
// candidates are its matches in right-input order, and the stored left rows
// become the probe input. Either way the join then probes (joinProbe) and
// emits each left row's surviving candidates in right-input order or, for a
// LEFT OUTER row none of whose candidates survives, the row once with NULLs
// on the right — the same rows in the same order for both builds.
type joinIter struct {
	joinBuilt
	probe     joinProbe // over the left input, or a left build's replay of it
	right     batchIter // the build input, or a left build's match pass
	exprs     joinExprs
	buildLeft bool
	size      int // rows per stored replay batch
	ectx      *execContext
	mem       *opMem
	st        *OpStats // nil-safe: where EXPLAIN ANALYZE reads the table built
	// byteKeys keys every join by bytes and gathers every probe
	// (Engine.byteKeyedJoin): the numeric table's and the streaming probe's
	// oracle.
	byteKeys bool

	built bool
	kh    vector.Batch // the key vectors of the batch under build
}

// newJoinIter makes a join of left and right, building right until
// prepareJoin says otherwise.
func newJoinIter(ctx *execContext, kind string, left, right batchIter, exprs joinExprs, leftWidth, rightWidth int, mem *opMem) *joinIter {
	j := &joinIter{right: right, exprs: exprs, size: ctx.batchSize, ectx: ctx, mem: mem}
	j.kind, j.leftWidth, j.rightWidth, j.store.width = kind, leftWidth, rightWidth, rightWidth
	j.probe = joinProbe{in: left, b: &j.joinBuilt, keys: exprs.left, residual: exprs.residual, size: ctx.batchSize}
	return j
}

func (j *joinIter) NextBatch() (*vector.Batch, error) {
	if err := j.ensureBuilt(); err != nil {
		return nil, err
	}
	return j.probe.NextBatch()
}

// ensureBuilt builds the join unless it already has: on its first NextBatch,
// or earlier when an exchange whose segment probes it is about to fan out.
func (j *joinIter) ensureBuilt() error {
	if j.built {
		return nil
	}
	if err := j.build(); err != nil {
		return err
	}
	j.built = true
	return nil
}

// build drains and closes the build side and indexes its keys; a left build
// then streams and closes the right input's match pass (matchRight) and
// replays the stored left rows as the probe input. After a left drain that
// failed the right input still streams, so a failing right input's error
// comes first, as with a right build, and the left's comes after the rows
// before it. The closed inputs are nilled so Close stays idempotent.
func (j *joinIter) build() error {
	j.keys.num = !j.byteKeys && j.exprs.right != nil && len(j.exprs.right.roots) == 1
	if !j.buildLeft {
		inErr, err := j.drain(j.right, j.exprs.right, &j.store)
		j.right.Close()
		j.right = nil
		if err = cmp.Or(inErr, err); err != nil {
			return err
		}
		j.index(true)
		if j.stream = !j.table.dup && !j.byteKeys; j.stream {
			j.kinds = j.store.typedKinds()
		}
		j.noteTable()
		return nil
	}
	replay := &storeReplay{s: rowStore{width: j.leftWidth}, size: j.size, ctx: j.ectx, mem: j.mem}
	inErr, err := j.drain(j.probe.in, j.exprs.left, &replay.s)
	j.probe.in.Close()
	j.probe.in, replay.err = replay, inErr
	if err == nil {
		j.index(false)
		err = j.matchRight()
		j.noteTable()
	}
	j.right.Close()
	j.right = nil
	return err
}

// noteTable records the table built for EXPLAIN ANALYZE: "number" or
// "bytes", plus "unique" when the probe streams.
func (j *joinIter) noteTable() {
	if j.st == nil {
		return
	}
	j.st.table = "bytes"
	if j.table.numeric() {
		j.st.table = "number"
	}
	if j.stream {
		j.st.table += " unique"
	}
}

// drain drains in a batch at a time into s. Each batch's active rows are
// copied once, a column at a time, into a dense batch (denseCopy, typed
// numbers and booleans kept typed); the keys evaluate in input order, and
// the rows whose keys are not NULL are keyed (addKeys) and stored. A right
// build's keys evaluate over the copy, a left build's over the batch as it
// came, as the probe it replaces did — so an operator's typed and fallback
// counters read the same for both builds. It returns the input's error
// apart from its own, with the rows before it stored.
func (j *joinIter) drain(in batchIter, keys *exprDAG, s *rowStore) (inErr, err error) {
	for {
		b, err := in.NextBatch()
		if err != nil || b == nil {
			return err, s.seal(j.mem)
		}
		copied := denseCopy(b)
		src := copied
		if j.buildLeft {
			src = b
		}
		keep, err := j.addKeys(keys, src)
		if err == nil {
			err = s.add(copied, keep)
		}
		if err == nil {
			err = s.charge(j.mem, copied, keys != nil)
		}
		if err != nil {
			return nil, err
		}
	}
}

// addKeys evaluates the keys over a build batch, reading a typed key vector
// in place, and adds the key of every active row it keeps — each row of a
// join without keys, those whose keys are not NULL of an equi-join —
// returning the kept rows' active positions, their rows in the batch's dense
// copy.
func (j *joinIter) addKeys(keys *exprDAG, b *vector.Batch) ([]int, error) {
	if err := evalKeys(keys, b, &j.kh); err != nil {
		return nil, err
	}
	keep := make([]int, 0, b.NumRows())
	for p, n := 0, b.NumRows(); p < n; p++ {
		if j.keys.add(&j.kh, b.ActiveAt(p)) {
			keep = append(keep, p)
		}
	}
	return keep, nil
}

// evalKeys evaluates keys over b into kh; a join without keys has none.
func evalKeys(keys *exprDAG, b *vector.Batch, kh *vector.Batch) error {
	if keys == nil {
		kh.Cols, kh.Typed = nil, nil
		return nil
	}
	return keys.evalTyped(b, kh)
}

// index puts every build key in the table in one pass over the rows in
// drain order. A right build chains each key's rows, in build order; a left
// build starts each key's chain empty for matchRight to fill.
func (j *joinIter) index(list bool) {
	t := &j.table
	t.alloc(&j.keys)
	n := int32(j.keys.rows())
	if list {
		t.next = make([]int32, 0, n)
	}
	for r := int32(0); r < n; r++ {
		if s := t.insert(r); list {
			t.push(s, r)
		}
	}
}

// matchRight streams a left build's match pass past its table. Each batch
// holds, densely and in right-input order, the right rows whose key the
// table holds, and each one's slot in one more column (matchIter);
// matchRight keeps the rows in the store and chains each to its slot's
// candidates, so whether the driver or an exchange's workers matched, the
// chains come out in release order.
func (j *joinIter) matchRight() error {
	w := j.rightWidth
	for {
		b, err := j.right.NextBatch()
		if err != nil || b == nil {
			return cmp.Or(err, j.store.seal(j.mem))
		}
		n := b.Len()
		for k, s := range b.Typed[w].Ints() {
			j.table.push(int32(s), int32(len(j.store.locs)+k))
		}
		matched := &vector.Batch{Cols: b.Cols[:w], Typed: b.Typed[:w]}
		if err := j.store.add(matched, dense(n)); err != nil {
			return err
		}
		if err := j.store.charge(j.mem, matched, true); err != nil {
			return err
		}
	}
}

// matchIter is a left build's match pass over a stream of right rows: it
// evaluates each batch's keys (plain columns, chooseBuild), looks them up in
// the left table, and copies the rows whose key the table holds into a fresh
// dense batch (denseCopy), with one more column: each row's slot. A batch
// without a match is skipped. It only reads the table — matchRight, on the
// driver, keeps the copies and chains them — so an exchange's workers run
// one each, and the copy the driver keeps is the only one made.
type matchIter struct {
	in     batchIter
	b      *joinBuilt
	keys   *exprDAG
	kh     vector.Batch
	found  []int32
	keyBuf []byte
	sel    []int
}

func (m *matchIter) NextBatch() (*vector.Batch, error) {
	for {
		b, err := m.in.NextBatch()
		if err != nil || b == nil {
			return nil, err
		}
		if err := evalKeys(m.keys, b, &m.kh); err != nil {
			return nil, err
		}
		if out := m.match(b); out != nil {
			return out, nil
		}
	}
}

// match copies b's rows whose key the table holds, with their slots; nil
// when there is none.
func (m *matchIter) match(b *vector.Batch) *vector.Batch {
	rows := activeRows(b)
	m.found, m.keyBuf = m.b.table.lookup(&m.kh, rows, b.Len(), m.found, m.keyBuf)
	sel := m.sel[:0]
	for _, i := range rows {
		if m.found[i] >= 0 {
			sel = append(sel, i)
		}
	}
	if m.sel = sel; len(sel) == 0 {
		return nil
	}
	slots := make([]int64, len(sel))
	for k, i := range sel {
		slots[k] = int64(m.found[i])
	}
	out := denseCopy(&vector.Batch{Cols: b.Cols, Typed: b.Typed, Sel: sel})
	if out.Typed == nil {
		out.Typed = make([]*vector.TypedCol, len(b.Cols))
	}
	out.Cols, out.Typed = append(out.Cols, nil), append(out.Typed, vector.NewInt64Col(slots, nil))
	return out
}

func (m *matchIter) Close() { m.in.Close() }

// activeRows is b's active physical rows.
func activeRows(b *vector.Batch) []int {
	if b.Sel != nil {
		return b.Sel
	}
	return dense(b.Len())
}

// denseCopy copies b's active rows into fresh dense vectors, one allocation
// per column: how the join and the sort retain their input. A column b holds
// as typed numbers or booleans stays typed — the streaming probe gathers the
// join's build columns typed; the sort reads its rows through Batch.Value.
func denseCopy(b *vector.Batch) *vector.Batch {
	sel := activeRows(b)
	out := &vector.Batch{Cols: make([][]variant.Value, len(b.Cols))}
	for c := range out.Cols {
		if tc := b.TypedCol(c); tc != nil && tc.Kind() != vector.TypedString {
			if out.Typed == nil {
				out.Typed = make([]*vector.TypedCol, len(b.Cols))
			}
			out.Typed[c] = tc.Copy(sel)
			continue
		}
		out.Cols[c] = b.Gather(c, sel, make([]variant.Value, 0, len(sel)))
	}
	return out
}

// rowRef addresses row i of batch b among the dense copies an operator
// retains: a join's right row, a sort's buffered row. A negative b is no row
// — the NULL padding of a LEFT OUTER row that has no candidates.
type rowRef struct{ b, i int32 }

// gatherRefs appends column c of the rows refs address among batches to dst
// — NULL for a ref without a row — and returns it: the column-at-a-time
// output of the join's right side and of the sort.
func gatherRefs(batches []*vector.Batch, c int, refs []rowRef, dst []variant.Value) []variant.Value {
	for _, r := range refs {
		v := variant.Null
		if r.b >= 0 {
			v = batches[r.b].Value(c, int(r.i))
		}
		dst = append(dst, v)
	}
	return dst
}

// Close is idempotent: build already closed (and nilled) the right side, so
// closing a drained join must not touch it again — see the execclose lint
// fixture's earlyCloser pattern and TestJoinCloseIdempotent.
func (j *joinIter) Close() {
	j.probe.Close()
	if j.right != nil {
		j.right.Close()
		j.right = nil
	}
	j.store.releaseAll(j.mem)
	if j.mem != nil {
		j.mem.releaseAll()
	}
}

// joinProbe is a hash join's probe: it streams its input past a built table
// a batch at a time, looking every active row's key up at once. When a right
// build left no key with a second row, each probe row has at most one
// candidate and the probe streams (emitStream): it emits the input batch's
// own columns under a selection, beside the build columns gathered into
// registers it recycles. Otherwise it collects up to a batch of (left row,
// candidate) pairs, gathers their combined columns into registers it
// recycles, evaluates the residual over the pairs, and emits the batch
// restricted to the survivors (emit). Either way its batch is valid until its
// next NextBatch. A probe owns its cursor, scratch and registers and only
// reads the table, so an exchange's workers each run one over their morsels
// of the one build: the join's own probe is the one-morsel case.
type joinProbe struct {
	in       batchIter
	b        *joinBuilt
	keys     *exprDAG // the probe keys over the input; nil without keys
	residual *exprDAG
	size     int          // pairs per output batch
	kh       vector.Batch // the key vectors of the batch under probe

	// The cursor: the input batch under probe, each of its rows' key slot
	// (-1: no key the table holds), its next active row, that row's next
	// candidate (-1 before its lookup), and whether one of the row's
	// candidates survived the residual so far.
	cur     *vector.Batch
	found   []int32
	pos     int
	cand    int32
	matched bool
	// Per pair, recycled for every output batch: its left row, its right row,
	// and whether it is its left row's last; plus key and selection scratch.
	lidx   []int
	refs   []rowRef
	last   []bool
	keyBuf []byte
	sel    []int
	pass   []int
	// emit's recycled output: the header, whose columns are one register
	// each, and the output selection.
	pairs vector.Batch
	psel  []int
	// emitStream's recycled output: the header, the output selection, and a
	// register per build column — typed where kinds names the typed kind
	// every stored batch holds the column in, variant where it is -1.
	out   vector.Batch
	osel  []int
	vregs [][]variant.Value
	tregs []vector.TypedCol
}

func (p *joinProbe) NextBatch() (*vector.Batch, error) {
	for {
		if p.cur == nil || p.pos == p.cur.NumRows() {
			if err := p.advance(); err != nil || p.cur == nil {
				return nil, err
			}
		}
		var out *vector.Batch
		var err error
		if p.b.stream {
			out, err = p.emitStream()
		} else if err = p.collect(); err == nil {
			out, err = p.emit()
		}
		if out != nil || err != nil {
			return out, err
		}
	}
}

func (p *joinProbe) Close() {
	if p.in != nil {
		p.in.Close()
		p.in = nil
	}
}

// advance moves the probe to the next input batch, evaluates its keys and
// looks every active row's up; p.cur is nil at the end of the input.
func (p *joinProbe) advance() error {
	b, err := p.in.NextBatch()
	p.cur, p.pos, p.cand = b, 0, -1
	if err != nil || b == nil {
		return err
	}
	if err := evalKeys(p.keys, b, &p.kh); err != nil {
		return err
	}
	p.found, p.keyBuf = p.b.table.lookup(&p.kh, activeRows(b), b.Len(), p.found, p.keyBuf)
	return nil
}

// collect fills the pairs, from the cursor on, with up to size pairs of the
// batch under probe: each active row's candidates in right-input order, and
// one pair without a right row for a LEFT OUTER row that has none.
func (p *joinProbe) collect() error {
	t, store := &p.b.table, &p.b.store
	p.lidx, p.refs, p.last = p.lidx[:0], p.refs[:0], p.last[:0]
	store.rewind()
	for n := p.cur.NumRows(); p.pos < n && len(p.refs) < p.size; {
		i := p.cur.ActiveAt(p.pos)
		if p.cand < 0 {
			if s := p.found[i]; s >= 0 {
				p.cand = t.slots[s].head
			}
			if p.cand < 0 {
				if p.b.kind == "LEFT OUTER" {
					p.lidx, p.refs, p.last = append(p.lidx, i), append(p.refs, rowRef{b: -1}), append(p.last, true)
				}
				p.pos++
				continue
			}
		}
		for ; p.cand >= 0 && len(p.refs) < p.size; p.cand = t.next[p.cand] {
			ref, err := store.ref(int64(p.cand))
			if err != nil {
				return err
			}
			p.lidx, p.refs, p.last = append(p.lidx, i), append(p.refs, ref), append(p.last, false)
		}
		if p.cand < 0 {
			p.last[len(p.last)-1] = true
			p.pos++
		}
	}
	return nil
}

// emit gathers the pairs' combined columns into its registers and evaluates
// the residual over the pairs that have a build row. It returns the batch
// restricted to the surviving pairs — a LEFT OUTER row none of whose
// candidates survived keeps its last pair with the right columns NULLed — or
// nil when none survives.
func (p *joinProbe) emit() (*vector.Batch, error) {
	n := len(p.refs)
	if n == 0 {
		return nil, nil
	}
	lw, out := p.b.leftWidth, &p.pairs
	if out.Cols == nil {
		out.Cols = make([][]variant.Value, lw+p.b.rightWidth)
	}
	for c, reg := range out.Cols {
		if vector.Poisoned() {
			vector.Poison(reg)
		}
		if c < lw {
			out.Cols[c] = p.cur.Gather(c, p.lidx, reg[:0])
		} else {
			out.Cols[c] = gatherRefs(p.b.store.batches, c-lw, p.refs, reg[:0])
		}
	}
	out.Sel = nil
	if p.residual == nil {
		return out, nil
	}
	pairs := p.sel[:0]
	for k, r := range p.refs {
		if r.b >= 0 {
			pairs = append(pairs, k)
		}
	}
	p.sel = pairs
	var pass []int // the pairs that pass, in order
	if len(pairs) > 0 {
		out.Sel = pairs
		var err error
		if pass, err = p.residual.selectTrue(out, p.pass[:0]); err != nil {
			return nil, err
		}
		p.pass = pass
	}
	if vector.Poisoned() {
		vector.PoisonSel(p.psel)
	}
	sel := p.psel[:0]
	for k, r := range p.refs {
		passed := len(pass) > 0 && pass[0] == k
		if passed {
			pass = pass[1:]
		}
		switch {
		case r.b < 0:
			sel = append(sel, k)
		case passed:
			sel, p.matched = append(sel, k), true
		case p.last[k] && !p.matched && p.b.kind == "LEFT OUTER":
			for c := lw; c < len(out.Cols); c++ {
				out.Cols[c][k] = variant.Null
			}
			sel = append(sel, k)
		}
		if p.last[k] {
			p.matched = false
		}
	}
	switch p.psel, out.Sel = sel, sel; len(sel) {
	case 0:
		return nil, nil
	case n:
		out.Sel = nil
	}
	return out, nil
}

// emitStream probes for a right build whose keys are all distinct, where a
// row has at most one candidate and the output keeps the probe batch's
// physical rows. From the cursor on, it takes as many rows as collect would
// pair: each active row with a candidate, and for LEFT OUTER each without.
// It emits the probe batch's own columns, typed views included, under the
// selection of the taken rows that survive the residual, beside the build
// columns gathered into its registers; a LEFT OUTER row without a surviving
// candidate is selected with NULL build columns.
func (p *joinProbe) emitStream() (*vector.Batch, error) {
	b, cur, outer := p.b, p.cur, p.b.kind == "LEFT OUTER"
	if vector.Poisoned() {
		vector.PoisonSel(p.sel)
		vector.PoisonSel(p.lidx)
		vector.PoisonSel(p.osel)
	}
	hits, rows := p.sel[:0], p.lidx[:0]
	p.refs = p.refs[:0]
	b.store.rewind()
	for n := cur.NumRows(); p.pos < n && len(rows) < p.size; p.pos++ {
		i := cur.ActiveAt(p.pos)
		if s := p.found[i]; s >= 0 {
			ref, err := b.store.ref(int64(b.table.slots[s].head))
			if err != nil {
				return nil, err
			}
			hits, p.refs = append(hits, i), append(p.refs, ref)
		} else if !outer {
			continue
		}
		rows = append(rows, i)
	}
	p.sel, p.lidx = hits, rows
	out := &p.out
	if out.Cols == nil {
		width := b.leftWidth + b.rightWidth
		out.Cols, out.Typed = make([][]variant.Value, width), make([]*vector.TypedCol, width)
		p.vregs, p.tregs = make([][]variant.Value, b.rightWidth), make([]vector.TypedCol, b.rightWidth)
	}
	for c := 0; c < b.leftWidth; c++ {
		out.Cols[c], out.Typed[c] = cur.Cols[c], cur.TypedCol(c)
	}
	for c := 0; c < b.rightWidth; c++ {
		p.gatherBuild(c, hits, cur.Len())
	}
	var pass []int // the hits that pass, in order
	if p.residual != nil && len(hits) > 0 {
		out.Sel = hits
		var err error
		if pass, err = p.residual.selectTrue(out, p.pass[:0]); err != nil {
			return nil, err
		}
		p.pass = pass
	}
	sel, h := p.osel[:0], 0
	for _, i := range rows {
		hit := h < len(hits) && hits[h] == i
		if hit {
			h++
		}
		switch {
		case hit && p.residual == nil:
		case hit && len(pass) > 0 && pass[0] == i:
			pass = pass[1:]
		case outer:
			p.padBuild(i)
		default:
			continue
		}
		sel = append(sel, i)
	}
	p.osel = sel
	if len(sel) == 0 {
		return nil, nil
	}
	out.Sel = sel
	return out, nil
}

// gatherBuild refills build column c's register, n rows long, with the
// candidates of the hits, through the refs emitStream took.
func (p *joinProbe) gatherBuild(c int, hits []int, n int) {
	col, batches := p.b.leftWidth+c, p.b.store.batches
	if k := p.b.kinds[c]; k >= 0 {
		t := &p.tregs[c]
		if vector.Poisoned() {
			vector.PoisonTyped(t)
		}
		t.Reset(vector.TypedKind(k), n)
		for h, i := range hits {
			r := p.refs[h]
			t.Put(i, batches[r.b].Typed[c], int(r.i))
		}
		p.out.Cols[col], p.out.Typed[col] = nil, t
		return
	}
	v := p.vregs[c]
	if cap(v) < n {
		v = make([]variant.Value, n)
	}
	v = v[:n]
	if vector.Poisoned() {
		vector.Poison(v)
	}
	for h, i := range hits {
		r := p.refs[h]
		v[i] = batches[r.b].Value(c, int(r.i))
	}
	p.vregs[c] = v
	p.out.Cols[col], p.out.Typed[col] = v, nil
}

// padBuild NULLs row i of every build column register.
func (p *joinProbe) padBuild(i int) {
	for c, k := range p.b.kinds {
		if k >= 0 {
			p.tregs[c].SetNull(i)
		} else {
			p.vregs[c][i] = variant.Null
		}
	}
}

// --- sort / limit / union -----------------------------------------------------

// prepareSort builds a sort.
func prepareSort(x *SortNode, ctx *execContext) (batchIter, error) {
	in, err := prepare(x.Input, ctx)
	if err != nil {
		return nil, err
	}
	exprs := make([]sqlast.Expr, len(x.Keys))
	descs := make([]bool, len(x.Keys))
	for i, k := range x.Keys {
		exprs[i], descs[i] = k.Expr, k.Desc
	}
	keys, err := compileVecs(ctx, x, x.Input.Schema(), exprs)
	if err != nil {
		in.Close()
		return nil, err
	}
	return &sortIter{
		in: in, keys: keys, descs: descs,
		width: len(x.Input.Schema().Names), size: ctx.batchSize, mem: ctx.opMemFor(x),
	}, nil
}

// sortIter is the sort, built from the join's parts. Its first NextBatch
// drains the input and closes it at once, so morsel scan workers release
// promptly: each batch's active rows are copied once into a dense batch
// (denseCopy), the keys evaluate over the copy on the driver, once and in
// input order — so a stateful key needs no special case — and every row gets
// a locator. One stable sort of the locators orders the rows,
// ties in input order, and each output batch gathers its rows a column at a
// time through them (gatherRefs), into fresh vectors.
//
// Under a memory limit the buffered chunk spills instead: it is stably
// sorted and written, keys first, as one run (writeSortRun). Runs are
// consecutive input chunks, so the earliest-run-tiebreak k-way merge
// (sortRunMerge) equals the global stable sort byte for byte.
type sortIter struct {
	in    batchIter
	keys  *exprDAG
	descs []bool
	width int
	size  int // rows per output batch
	mem   *opMem

	started bool
	// The buffered chunk: dense copies of the input batches, each one's key
	// values row-major (row i's are keyRows[b][i*len(descs):]), and a locator
	// per row, sorted once the drain ends; refs[pos:] are still to emit.
	batches []*vector.Batch
	keyRows [][]variant.Value
	refs    []rowRef
	pos     int
	runs    []*storage.SpillRun // sorted on-disk chunks, in input order
	merge   *sortRunMerge       // non-nil once the input spilled
}

func (s *sortIter) NextBatch() (*vector.Batch, error) {
	if !s.started {
		s.started = true
		err := s.materialize()
		s.in = nil // materialize closed it
		if err != nil {
			return nil, err
		}
	}
	if s.merge != nil {
		return s.merge.NextBatch()
	}
	return s.emit(), nil
}

// materialize drains the input into the buffered chunk, spilling it as a run
// whenever the budget trips, then sorts what stayed in memory or, once the
// input spilled, spills the rest too and starts the merge.
func (s *sortIter) materialize() error {
	defer s.in.Close()
	for {
		b, err := s.in.NextBatch()
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		b = denseCopy(b)
		if err := s.absorb(b); err != nil {
			return err
		}
		if s.mem.enabled() && s.mem.charge(activeRowsBytes(b)) {
			if err := s.spill(); err != nil {
				return err
			}
		}
	}
	if len(s.runs) == 0 {
		s.sortRefs()
		return nil
	}
	if len(s.refs) > 0 {
		if err := s.spill(); err != nil {
			return err
		}
	}
	s.merge = newSortRunMerge(s.runs, s.descs, s.width, s.size)
	return nil
}

// absorb evaluates the keys over the dense batch b and buffers b, its key
// values and a locator per row.
func (s *sortIter) absorb(b *vector.Batch) error {
	kcols, err := s.keys.eval(b)
	if err != nil {
		return err
	}
	n, nk := b.Len(), len(kcols)
	keys := make([]variant.Value, n*nk)
	for k, col := range kcols {
		for i := range n {
			keys[i*nk+k] = col[i]
		}
	}
	bi := int32(len(s.batches))
	s.batches, s.keyRows = append(s.batches, b), append(s.keyRows, keys)
	for i := range n {
		s.refs = append(s.refs, rowRef{b: bi, i: int32(i)})
	}
	return nil
}

// sortRefs stably sorts the buffered rows' locators by their keys.
func (s *sortIter) sortRefs() {
	nk := len(s.descs)
	slices.SortStableFunc(s.refs, func(a, b rowRef) int {
		return compareSortKeys(s.descs, s.keyRows[a.b][int(a.i)*nk:], s.keyRows[b.b][int(b.i)*nk:])
	})
}

// compareSortKeys orders two rows by their key values under descs.
func compareSortKeys(descs []bool, a, b []variant.Value) int {
	for k, desc := range descs {
		if c := variant.Compare(a[k], b[k]); c != 0 {
			if desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// spill sorts the buffered chunk, writes it as the next run and releases it.
func (s *sortIter) spill() error {
	s.sortRefs()
	run, err := writeSortRun(s.batches, s.keyRows, len(s.descs), s.refs)
	if err != nil {
		return err
	}
	s.runs = append(s.runs, run)
	s.mem.noteSpill(run.Bytes())
	s.mem.releaseAll()
	s.batches, s.keyRows, s.refs = nil, nil, s.refs[:0]
	return nil
}

// emit gathers the next size sorted rows a column at a time into a fresh
// batch; nil once every row is out.
func (s *sortIter) emit() *vector.Batch {
	refs := s.refs[s.pos:min(s.pos+s.size, len(s.refs))]
	if len(refs) == 0 {
		return nil
	}
	s.pos += len(refs)
	out := &vector.Batch{Cols: make([][]variant.Value, s.width)}
	for c := range out.Cols {
		out.Cols[c] = gatherRefs(s.batches, c, refs, make([]variant.Value, 0, len(refs)))
	}
	return out
}

func (s *sortIter) Close() {
	if s.in != nil {
		s.in.Close()
		s.in = nil
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
