package engine

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// Parallel pipeline breakers. The morsel-driven scan of PR 2 parallelizes
// the streaming half of a pipeline; this file parallelizes the blocking
// half — the hash-aggregation build, the hash-join build and the sort —
// while keeping every output byte identical to the sequential operators.
// The ordering argument each one rests on is spelled out at its
// implementation. The plan carries no parallel node for them: each operator
// takes its worker count from the query's parallelism when it is bound (join
// build, sort) or when it first runs (aggregate: aggFanOut).

// Minimum input sizes below which the parallel phases fall back to the
// sequential code path: worker startup and merge bookkeeping cost more than
// they save on small inputs.
const (
	minParallelBuildRows = 256
	minParallelSortRows  = 1024
)

// aggSpanFanout is the number of phase-1 claims per aggregation worker. Each
// claim is a contiguous span of storage partitions sharing one local table:
// contiguity keeps the ordering proof (span-index order = input row order),
// while spanning several partitions amortizes the per-table group-insert
// cost — one table per storage partition degenerates into insert-per-row
// whenever partitions hold fewer rows than the group cardinality. A few
// spans per worker keeps claims balanced without shrinking the tables much.
const aggSpanFanout = 2

// bucketOfKey hashes a canonical binary group key onto one of parts
// disjoint merge partitions (FNV-1a).
func bucketOfKey(key []byte, parts int) int32 {
	if parts <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return int32(h % uint64(parts))
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

// staticBatches replays a pre-materialized batch list; the per-partition
// pipeline chains of the parallel aggregate source from it.
type staticBatches struct {
	batches []*vector.Batch
	pos     int
}

func (s *staticBatches) NextBatch() (*vector.Batch, error) {
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	b := s.batches[s.pos]
	s.pos++
	return b, nil
}

func (s *staticBatches) Close() {}

// chainCounts accumulates one operator's row/batch counters inside one
// worker, flushed into the shared stats slot once at worker exit. Wall time
// is deliberately not metered on worker chains: the workers run
// concurrently, so their summed time is not wall time, and the parallel
// operator's own (driver-side) inclusive time already covers the phase.
type chainCounts struct {
	st      *OpStats
	rows    int64
	batches int64
	calls   int64
}

func (c *chainCounts) flush(ctx *execContext) {
	if c == nil || c.st == nil {
		return
	}
	ctx.mu.Lock()
	c.st.RowsOut += c.rows
	c.st.Batches += c.batches
	c.st.Calls += c.calls
	ctx.mu.Unlock()
}

// countIter meters rows/batches/calls into a worker-local chainCounts.
type countIter struct {
	in batchIter
	c  *chainCounts
}

func (ci *countIter) NextBatch() (*vector.Batch, error) {
	b, err := ci.in.NextBatch()
	ci.c.calls++
	if b != nil {
		ci.c.batches++
		ci.c.rows += int64(b.NumRows())
	}
	return b, err
}

func (ci *countIter) Close() { ci.in.Close() }

// newChainCounts allocates one worker's counters, index 0 for the scan and
// i+1 for stage i; nil slots for nil stats slots (the query is not analyzed).
func newChainCounts(scanSt *OpStats, stageSts []*OpStats) []*chainCounts {
	counts := make([]*chainCounts, len(stageSts)+1)
	for i, st := range append([]*OpStats{scanSt}, stageSts...) {
		if st != nil {
			counts[i] = &chainCounts{st: st}
		}
	}
	return counts
}

// stageStats pre-creates the stats slots of a worker pipeline's scan and
// stages. It runs on the driver: statsFor mutates the stats map and must not
// race with worker flushes.
func stageStats(ctx *execContext, scan *ScanNode, stages []Node) (*OpStats, []*OpStats) {
	sts := make([]*OpStats, len(stages))
	for i, s := range stages {
		sts[i] = ctx.statsFor(s)
	}
	return ctx.statsFor(scan), sts
}

// compiledStage is one pipeline stage's compiled expressions, owned by one
// worker (compiled expressions hold state) and shared across that worker's
// partitions or morsels.
type compiledStage struct {
	op      string
	filter  *FilterNode
	project *ProjectNode
	flatten *FlattenNode
	agg     *aggEval // a streamed aggregate's grouping and arguments
	dag     *exprDAG // the stage's condition, select list, FLATTEN input or agg's DAG
	width   int
	stream  *streamAggIter // the streamed aggregate last instantiated
}

// compileStages compiles the Filter/Project/Flatten/streamed Aggregate chain
// (execution order) for one worker.
func compileStages(ctx *execContext, stages []Node) ([]compiledStage, error) {
	out := make([]compiledStage, 0, len(stages))
	for _, n := range stages {
		op, _ := describeNode(n)
		switch x := n.(type) {
		case *FilterNode:
			cond, err := compileVec(ctx, x.Input.Schema(), x.Cond)
			if err != nil {
				return nil, err
			}
			out = append(out, compiledStage{op: op, filter: x, dag: cond})
		case *ProjectNode:
			fns, err := compileVecs(ctx, x.Input.Schema(), x.Exprs)
			if err != nil {
				return nil, err
			}
			out = append(out, compiledStage{op: op, project: x, dag: fns})
		case *FlattenNode:
			input, err := compileVec(ctx, x.Input.Schema(), x.Expr)
			if err != nil {
				return nil, err
			}
			out = append(out, compiledStage{
				op: op, flatten: x, dag: input,
				width: len(x.Input.Schema().Names),
			})
		case *AggregateNode:
			eval, err := compileAggEval(ctx, x)
			if err != nil {
				return nil, err
			}
			out = append(out, compiledStage{op: op, agg: eval, dag: eval.dag})
		default:
			return nil, fmt.Errorf("engine: node %T cannot run in a worker pipeline", n)
		}
	}
	return out, nil
}

// instantiate wraps in with the stage's operator. The DAG is the worker's
// own, so the operator may be rebuilt per span: registers carry over.
func (s *compiledStage) instantiate(in batchIter, batchSize int) batchIter {
	switch {
	case s.filter != nil:
		return &filterIter{in: in, cond: s.dag}
	case s.project != nil:
		return &projectIter{in: in, dag: s.dag}
	case s.agg != nil:
		s.stream = newStreamAggIter(in, s.agg, batchSize)
		return s.stream
	}
	return newFlattenIter(in, s.dag, s.flatten.Outer, s.width, batchSize)
}

// instantiateChain assembles one worker's operator chain over src from its
// compiled stages, with planck checking and count metering mirroring what
// prepare applies to the streaming pipeline.
func instantiateChain(ctx *execContext, src batchIter, cs []compiledStage, counts []*chainCounts, batchSize int) batchIter {
	it := src
	if ctx.planCheck {
		it = &checkIter{in: it, op: "Scan"}
	}
	if counts[0] != nil {
		it = &countIter{in: it, c: counts[0]}
	}
	for i := range cs {
		s := &cs[i]
		it = s.instantiate(it, batchSize)
		if ctx.planCheck {
			it = &checkIter{in: it, op: s.op}
		}
		if counts[i+1] != nil {
			it = &countIter{in: it, c: counts[i+1]}
		}
	}
	return it
}

// --- ordered exchange --------------------------------------------------------

// minMorselRows is the exchange's morsel size, rounded up to whole batches:
// large enough to amortize a morsel's rewind and hand-off, small enough that
// one storage partition — adl_exec's whole table — still fans out.
const minMorselRows = 1024

// maxWorkerBatchRows caps the batches a segment's workers evaluate. Each
// worker owns a register file of slots × batch rows (about 4 MB per worker on
// ADL q7 at 1 024 rows), so W workers multiply the query's transient heap and
// Go's heap goal doubles it again; at 256 rows the registers stay
// cache-resident and the second worker costs adl_exec ~5% RSS instead of
// ~29%, at equal speed. Results do not depend on the batch size.
const maxWorkerBatchRows = 256

// morsel is rows [lo, hi) of pinned partition part.
type morsel struct{ part, lo, hi int }

// morselOut is one morsel's output as a worker hands it to the driver.
type morselOut struct {
	k       int             // morsel index; -1 for a worker that failed to start
	batches []*vector.Batch // detached: the worker's chain recycles its own
	issued  []int64         // row IDs each counter issued in the morsel
	bytes   int64           // charged to the query's accountant until handed out
	err     error           // the morsel's first error, raised after its batches
}

// exchangeIter runs an ExchangeNode's segment — or, with no node, a plain
// scan — on a pool of workers. Workers claim morsels from an atomic counter,
// each holding one token of a bounded window, replay the segment over the
// morsel on their own compiled stages, and hand the detached output to the
// driver, which releases morsels strictly in morsel order (in completion
// order when the planner proved the consumers order-insensitive) and returns
// each one's token on release.
//
// Why the output is byte-identical to the sequential pipeline's: morsels are
// contiguous row ranges, so every stage sees the same rows in the same order
// (only the batch boundaries may differ, and no operator's output depends on
// them). Counters restart at 0 per morsel; adding to each column tagged with
// a counter the IDs that counter issued in the earlier morsels gives exactly
// the sequential IDs, because the counter numbers the rows reaching its
// projection in order, and those are the concatenation of the morsels'. No
// group of a streamed aggregate spans two morsels — its key is a row ID of
// the segment, and a row's copies never leave its morsel — so every fold sees
// its rows in the sequential order too. The first error in row order is the
// first errored morsel's, raised after its earlier batches.
type exchangeIter struct {
	ctx    *execContext
	node   *ExchangeNode // nil: a plain scan, whose morsels are whole partitions
	scan   *ScanNode
	colIdx []int
	parts  []*storage.Partition
	st     *OpStats
	prog   *opProgress
	// seq is the sequential pipeline prepared at bind. It serves whenever the
	// segment does not fan out and is closed unstarted when it does.
	seq     batchIter
	ordered bool
	batch   int // rows per batch inside the workers (maxWorkerBatchRows)

	started  bool
	morsels  []morsel
	scanSt   *OpStats
	results  chan *morselOut
	tokens   chan struct{}
	stop     chan struct{}
	halt     atomic.Bool
	stopOnce sync.Once
	wg       sync.WaitGroup
	window   []*morselOut // received, unreleased: morsel k waits in slot k % len
	next     int          // morsels released
	offsets  []int64      // per counter: IDs issued by the released morsels
	cur      *morselOut   // the morsel being handed out
}

// prepareExchange prepares the segment as the sequential pipeline — so bind
// compiles it once and an exchange that does not fan out costs nothing — and
// the exchange around it.
func prepareExchange(x *ExchangeNode, ctx *execContext) (batchIter, error) {
	seq, err := prepare(x.Input, ctx)
	if err != nil {
		return nil, err
	}
	colIdx, err := scanColumns(x.Scan)
	if err != nil {
		seq.Close()
		return nil, err
	}
	return newExchangeIter(ctx, x, x.Scan, seq, colIdx), nil
}

func newExchangeIter(ctx *execContext, node *ExchangeNode, scan *ScanNode, seq batchIter, colIdx []int) *exchangeIter {
	x := &exchangeIter{
		ctx: ctx, node: node, scan: scan, colIdx: colIdx, seq: seq,
		parts: ctx.pinSnapshot(scan.Table).Parts, ordered: !ctx.unorderedScans[scan],
		batch: ctx.batchSize,
	}
	if node != nil {
		x.st, x.prog = ctx.statsFor(node), ctx.progFor(node)
		x.batch = min(x.batch, maxWorkerBatchRows)
	}
	return x
}

// start decides, on the first NextBatch, whether the segment fans out: it
// must be eligible, run at parallelism > 1 and cut into two morsels or more
// after pruning. Otherwise the sequential pipeline serves and the node
// records why. An empty table yields no morsels and starts no goroutine.
func (x *exchangeIter) start() {
	x.started = true
	var why string
	if x.node != nil {
		why = x.node.Why
	}
	if why == "" && x.ctx.parallelism < 2 {
		why = "parallelism 1"
	}
	pruned := 0
	if why == "" {
		pruned = x.cut()
		if len(x.morsels) < 2 {
			why = [...]string{"no morsels", "one morsel"}[len(x.morsels)]
		}
	}
	if why != "" {
		if x.st != nil {
			x.st.Sequential = why
		}
		return
	}
	x.seq.Close()
	x.seq = nil
	workers := min(x.ctx.parallelism, len(x.morsels))
	var stages []Node
	if x.node != nil {
		stages = x.node.Stages
		x.offsets = make([]int64, len(x.node.Counters))
	}
	if x.st != nil {
		x.st.Workers, x.st.Morsels = workers, len(x.morsels)
	}
	scanSt, stageSts := stageStats(x.ctx, x.scan, stages)
	x.ctx.addScanCounts(scanSt, len(x.parts), pruned, 0)
	x.scanSt = scanSt // the workers add the bytes they read
	if x.node == nil {
		scanSt = nil // the plain scan's own statIter meters its rows
	}
	// The window lets each worker run one morsel ahead of the one the driver
	// waits for; tokens is its semaphore.
	x.window = make([]*morselOut, 2*workers)
	x.tokens = make(chan struct{}, len(x.window))
	for range x.window {
		x.tokens <- struct{}{}
	}
	x.results = make(chan *morselOut, workers) // one result in flight per worker
	x.stop = make(chan struct{})
	var claim atomic.Int64
	x.wg.Add(workers)
	for range workers {
		go x.work(&claim, scanSt, stageSts)
	}
}

// cut splits the pinned, unpruned partitions into morsels and returns the
// pruned count. A plain scan's morsels are whole partitions; a segment's are
// runs of minMorselRows rounded up to whole worker batches, so no morsel but
// a partition's last ends in a short batch.
func (x *exchangeIter) cut() (pruned int) {
	size := 0
	if x.node != nil {
		size = (cmp.Or(x.ctx.morselRows, minMorselRows) + x.batch - 1) / x.batch * x.batch
	}
	for i, p := range x.parts {
		if partitionPruned(x.scan, p) {
			pruned++
			continue
		}
		n := p.NumRows()
		step := cmp.Or(size, n)
		for lo := 0; ; lo += step {
			x.morsels = append(x.morsels, morsel{part: i, lo: lo, hi: min(lo+step, n)})
			if lo+step >= n {
				break
			}
		}
	}
	return pruned
}

// work is one worker: it compiles its own copy of the segment, then claims
// morsels in order, one window token each, until none is left, its morsel
// failed, or the exchange stops.
func (x *exchangeIter) work(claim *atomic.Int64, scanSt *OpStats, stageSts []*OpStats) {
	defer x.wg.Done()
	r, err := x.compileRun(scanSt, stageSts)
	if err != nil {
		x.send(&morselOut{k: -1, err: err})
		return
	}
	defer r.close(x.ctx)
	for {
		select {
		case <-x.tokens:
		case <-x.stop:
			return
		}
		k := int(claim.Add(1) - 1)
		if k >= len(x.morsels) || x.ctx.cancelled() != nil {
			return
		}
		out := r.run(x, k)
		if !x.send(out) || out.err != nil {
			return
		}
	}
}

// send hands a result to the driver unless the exchange stopped, in which
// case the result's accounted bytes go straight back.
func (x *exchangeIter) send(out *morselOut) bool {
	select {
	case x.results <- out:
		return true
	case <-x.stop:
		x.unhold(out)
		return false
	}
}

// segmentRun is one worker's compiled copy of the segment (compiled
// expressions hold state), rewound per morsel.
type segmentRun struct {
	filter   *exprDAG
	src      staticBatches
	out      batchIter
	stages   []compiledStage
	counters []*exprNode
	counts   []*chainCounts
}

func (x *exchangeIter) compileRun(scanSt *OpStats, stageSts []*OpStats) (*segmentRun, error) {
	r := &segmentRun{}
	var err error
	if x.scan.Filter != nil {
		if r.filter, err = compileVec(x.ctx, x.scan.Schema(), x.scan.Filter); err != nil {
			return nil, err
		}
	}
	if x.node != nil {
		if r.stages, err = compileStages(x.ctx, x.node.Stages); err != nil {
			return nil, err
		}
		for _, c := range x.node.Counters {
			n := r.stages[c.stage].dag.counter(c.expr)
			if n == nil {
				return nil, fmt.Errorf("engine: internal error: exchange counter %v compiled to no SEQ node", c)
			}
			r.counters = append(r.counters, n)
		}
	}
	r.counts = newChainCounts(scanSt, stageSts)
	r.out = instantiateChain(x.ctx, &r.src, r.stages, r.counts, x.batch)
	return r, nil
}

// run replays the segment over morsel k: the scan batches feed the chain's
// source, streamed aggregates reopen, and counters restart at 0.
func (r *segmentRun) run(x *exchangeIter, k int) *morselOut {
	m := x.morsels[k]
	out := &morselOut{k: k}
	batches, bytes, err := scanPartition(x.ctx, x.parts[m.part], x.colIdx, r.filter, x.batch, m.lo, m.hi)
	x.ctx.addScanCounts(x.scanSt, 0, 0, bytes)
	if err != nil {
		out.err = err
		return out
	}
	r.src = staticBatches{batches: batches}
	for i := range r.stages {
		if s := r.stages[i].stream; s != nil {
			s.rewind()
		}
	}
	for _, c := range r.counters {
		c.seq = 0
	}
	acct := x.ctx.acct
	for !x.halt.Load() {
		b, err := r.out.NextBatch()
		if err != nil || b == nil {
			out.err = err
			break
		}
		if len(r.stages) > 0 {
			// Scan batches are stable; a stage's are recycled by its next call.
			b = b.Detach()
			if acct.enabled() {
				nb := activeRowsBytes(b)
				acct.charge(nb)
				x.prog.addMem(nb)
				out.bytes += nb
			}
		}
		out.batches = append(out.batches, b)
	}
	out.issued = make([]int64, len(r.counters))
	for i, c := range r.counters {
		out.issued[i] = c.seq
	}
	return out
}

func (r *segmentRun) close(ctx *execContext) {
	r.out.Close()
	for _, c := range r.counts {
		c.flush(ctx)
	}
}

func (x *exchangeIter) NextBatch() (*vector.Batch, error) {
	if !x.started {
		x.start()
	}
	if x.seq != nil {
		return x.seq.NextBatch()
	}
	for x.cur == nil || len(x.cur.batches) == 0 {
		if x.cur != nil && x.cur.err != nil {
			return nil, x.cur.err
		}
		if x.next == len(x.morsels) {
			return nil, nil
		}
		if err := x.release(); err != nil {
			return nil, err
		}
	}
	b := x.cur.batches[0]
	x.cur.batches = x.cur.batches[1:]
	return b, nil
}

// release makes the next morsel current — morsel next, or in unordered mode
// whichever arrives first — renumbers its row IDs and returns its token, so
// the workers may claim one morsel further.
func (x *exchangeIter) release() error {
	slot := x.next % len(x.window)
	for x.window[slot] == nil {
		out, err := x.recv()
		if err != nil {
			return err
		}
		if !x.ordered {
			out.k = x.next
		}
		x.window[out.k%len(x.window)] = out
	}
	x.unhold(x.cur)
	x.cur, x.window[slot] = x.window[slot], nil
	x.next++
	x.tokens <- struct{}{}
	x.renumber(x.cur)
	return nil
}

// recv blocks on the next worker result unless the query is cancelled first:
// the driver's only blocking point, so a cancelled query never hangs here.
// (Close releases the workers through the stop channel.)
func (x *exchangeIter) recv() (*morselOut, error) {
	select {
	case out := <-x.results:
		if out.k < 0 {
			return nil, out.err
		}
		return out, nil
	case <-x.ctx.queryCtx().Done():
		return nil, x.ctx.cancelled()
	}
}

// renumber adds each counter's running offset to the columns descending from
// it, then advances the offsets past the morsel's IDs.
func (x *exchangeIter) renumber(out *morselOut) {
	if x.node == nil {
		return
	}
	for c, r := range x.node.Renumber {
		if r == 0 || x.offsets[r-1] == 0 {
			continue
		}
		off := x.offsets[r-1]
		for _, b := range out.batches {
			col := b.Cols[c]
			b.ForEach(func(i int) { col[i] = variant.Int(col[i].AsInt() + off) })
		}
	}
	for i, n := range out.issued {
		x.offsets[i] += n
	}
}

// unhold returns a received morsel's accounted bytes.
func (x *exchangeIter) unhold(out *morselOut) {
	if out != nil && out.bytes > 0 {
		x.ctx.acct.release(out.bytes)
		x.prog.addMem(-out.bytes)
		out.bytes = 0
	}
}

// Close stops the workers, waits for them to exit and returns every
// accounted byte still held; safe before the first NextBatch and twice.
func (x *exchangeIter) Close() {
	if x.seq != nil {
		x.seq.Close()
		return
	}
	if x.stop == nil {
		return
	}
	x.stopOnce.Do(func() {
		x.halt.Store(true)
		close(x.stop)
		x.wg.Wait()
		for len(x.results) > 0 {
			x.unhold(<-x.results)
		}
		for _, out := range x.window {
			x.unhold(out)
		}
		x.unhold(x.cur)
	})
}

// --- two-phase partitioned hash aggregation ----------------------------------

// aggFanOut decides, on a hash aggregate's first NextBatch, whether it runs
// as the two-phase partitioned aggregation (parallelAgg): the plan found it
// eligible (AggregateNode.Why), the query runs at parallelism > 1, and the
// pinned snapshot of its table holds more than one partition. It returns the
// segment the workers replay; otherwise the stats slot records why the
// aggregate stays sequential.
func aggFanOut(ctx *execContext, x *AggregateNode) (*ScanNode, []Node, bool) {
	scan, stages, ok := aggSegment(x.Input)
	why := x.Why
	switch {
	case why != "":
	case !ok:
		why = "input not a scan pipeline"
	case ctx.parallelism < 2:
		why = "parallelism 1"
	case len(ctx.pinSnapshot(scan.Table).Parts) < 2:
		why = "one partition"
	}
	if why != "" {
		if st := ctx.statsFor(x); st != nil {
			st.Sequential = why
		}
		return nil, nil, false
	}
	ctx.mu.Lock()
	ctx.metrics.ParallelBreakers++
	ctx.mu.Unlock()
	return scan, stages, true
}

// aggSegment returns the scan and the stages, in execution order, of an
// eligible aggregate's input: its exchange's segment, or a stateless chain
// without FLATTEN that no exchange wraps.
func aggSegment(in Node) (*ScanNode, []Node, bool) {
	if x, ok := in.(*ExchangeNode); ok {
		return x.Scan, x.Stages, true
	}
	return pipelineStages(in)
}

// parallelAgg runs the aggregation as two phases over the pinned partitions
// of scan, in place of the sequential pipeline bind prepared:
//
//	phase 1 (local): workers claim contiguous spans of storage partitions
//	from an atomic counter, replay the stateless Filter/Project/Flatten
//	chain over each partition in ascending order, and fold the rows into a
//	span-local aggTable whose groups are also bucketed into mergeParts
//	disjoint hash partitions.
//
//	phase 2 (merge): workers claim hash buckets; within a bucket the local
//	tables fold together in span index order, which equals input row order
//	(spans are disjoint ascending partition ranges) — so MIN/MAX/COUNT
//	partials combine exactly, ARRAY_AGG partials concatenate in input
//	order, DISTINCT dedup sees first occurrences first, and ANY_VALUE
//	adopts the earliest span's value. The first table that carries a group
//	stamps it with (span index << 32 | local insertion seq); sorting the
//	merged groups by stamp is exactly the sequential first-seen output
//	order.
//
// Both phases join their workers before returning. Each worker compiles its
// own copy of the segment and the aggregate (compiled expressions hold
// state); eval is the driver's copy, for the empty-input row and the spill
// decoding.
func parallelAgg(ctx *execContext, x *AggregateNode, scan *ScanNode, stages []Node, eval *aggEval) ([][]variant.Value, error) {
	colIdx, err := scanColumns(scan)
	if err != nil {
		return nil, err
	}
	parts := ctx.pinSnapshot(scan.Table).Parts
	spanCount := min(ctx.parallelism*aggSpanFanout, len(parts))
	spans := make([][2]int, 0, spanCount)
	chunk := (len(parts) + spanCount - 1) / spanCount
	for lo := 0; lo < len(parts); lo += chunk {
		spans = append(spans, [2]int{lo, min(lo+chunk, len(parts))})
	}
	workers := min(ctx.parallelism, len(spans))
	mergeParts := cmp.Or(ctx.mergeParts, ctx.parallelism)
	st := ctx.statsFor(x)

	scanSt, stageSts := stageStats(ctx, scan, stages)
	ctx.addScanCounts(scanSt, len(parts), 0, 0)

	locals := make([]*aggTable, len(spans))
	spanRuns := make([][]*storage.SpillRun, len(spans))
	defer func() {
		for _, rs := range spanRuns {
			for _, r := range rs {
				r.Close()
			}
		}
	}()
	workerRows := make([]int64, workers)
	acct := ctx.acct
	// Shared operator-level accounting, updated atomically by the workers and
	// copied into the stats slot at the end.
	var opCharged, opPeak, opHeld int64
	var opSpills, opSpillBytes int64
	var spilledRows, spilledGroups int64
	// prog mirrors the held-bytes gauge into the live-progress slot so
	// /debug/queries shows the breaker's current memory while it runs.
	prog := ctx.progFor(x)
	defer func() {
		held := atomic.LoadInt64(&opHeld)
		acct.release(held)
		prog.addMem(-held)
	}()
	var claim int64
	var stop int32
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		atomic.StoreInt32(&stop, 1)
	}
	// checkCancel lets every worker loop abort within one morsel of a
	// cancelled query context.
	checkCancel := func() bool {
		if err := ctx.cancelled(); err != nil {
			fail(err)
			return true
		}
		return false
	}

	localStart := time.Now()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			// Per-worker compilation: compiled expressions hold state
			// (reusable buffers), so nothing compiled is shared across
			// goroutines.
			eval, err := compileAggEval(ctx, x)
			if err != nil {
				fail(err)
				return
			}
			var filter *exprDAG
			if scan.Filter != nil {
				filter, err = compileVec(ctx, scan.Schema(), scan.Filter)
				if err != nil {
					fail(err)
					return
				}
			}
			cs, err := compileStages(ctx, stages)
			if err != nil {
				fail(err)
				return
			}
			counts := newChainCounts(scanSt, stageSts)
			defer func() {
				for _, c := range counts {
					c.flush(ctx)
				}
			}()
			// spillSpan moves one span table's state to disk mid-stream; the
			// merge phase folds the runs back in (span, run) order.
			spillSpan := func(si int, table *aggTable, spanCharged *int64) (*aggTable, error) {
				run, serr := spillAggTable(table, "pagg")
				if serr != nil {
					return nil, serr
				}
				spanRuns[si] = append(spanRuns[si], run)
				acct.noteSpill(run.Bytes())
				atomic.AddInt64(&opSpills, 1)
				atomic.AddInt64(&opSpillBytes, run.Bytes())
				atomic.AddInt64(&spilledRows, table.rows)
				atomic.AddInt64(&spilledGroups, int64(len(table.order)))
				workerRows[w] += table.rows
				acct.release(*spanCharged)
				atomic.AddInt64(&opHeld, -*spanCharged)
				prog.addMem(-*spanCharged)
				*spanCharged = 0
				return newAggTable(eval.aggs, mergeParts), nil
			}
			for {
				if atomic.LoadInt32(&stop) != 0 || checkCancel() {
					return
				}
				si := int(atomic.AddInt64(&claim, 1) - 1)
				if si >= len(spans) {
					return
				}
				var spanBatches []*vector.Batch
				for i := spans[si][0]; i < spans[si][1]; i++ {
					if atomic.LoadInt32(&stop) != 0 || checkCancel() {
						return
					}
					part := parts[i]
					if partitionPruned(scan, part) {
						ctx.addScanCounts(scanSt, 0, 1, 0)
						continue
					}
					batches, bytes, err := scanPartition(ctx, part, colIdx, filter, ctx.batchSize, 0, part.NumRows())
					ctx.addScanCounts(scanSt, 0, 0, bytes)
					if err != nil {
						fail(err)
						return
					}
					spanBatches = append(spanBatches, batches...)
				}
				// One operator chain per span: the batches are already in
				// ascending partition order, so a single replay preserves
				// input row order.
				table := newAggTable(eval.aggs, mergeParts)
				var spanCharged int64
				it := instantiateChain(ctx, &staticBatches{batches: spanBatches}, cs, counts, ctx.batchSize)
				for {
					b, berr := it.NextBatch()
					if berr != nil {
						it.Close()
						fail(berr)
						return
					}
					if b == nil {
						break
					}
					if aerr := eval.absorb(table, b); aerr != nil {
						it.Close()
						fail(aerr)
						return
					}
					if acct.enabled() {
						nb := activeRowsBytes(b)
						spanCharged += nb
						atomic.AddInt64(&opHeld, nb)
						prog.addMem(nb)
						cur := atomic.AddInt64(&opCharged, nb)
						for {
							pk := atomic.LoadInt64(&opPeak)
							if cur <= pk || atomic.CompareAndSwapInt64(&opPeak, pk, cur) {
								break
							}
						}
						if acct.charge(nb) {
							var serr error
							table, serr = spillSpan(si, table, &spanCharged)
							if serr != nil {
								it.Close()
								fail(serr)
								return
							}
						}
					}
				}
				it.Close()
				locals[si] = table
				workerRows[w] += table.rows
			}
		}(w)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	localWall := time.Since(localStart)

	// Compact the phase-1 output into merge sources: for each span, its spill
	// runs in spill (= input) order, then its final live table. Source index
	// order therefore equals input row order, so it serves as the stamp's
	// major key exactly as the table index did before spilling existed.
	type aggSource struct {
		run   *storage.SpillRun
		table *aggTable
	}
	var sources []aggSource
	var localRows, localGroups int64
	for si, t := range locals {
		for _, r := range spanRuns[si] {
			sources = append(sources, aggSource{run: r})
		}
		if t != nil && t.rows > 0 {
			sources = append(sources, aggSource{table: t})
			localRows += t.rows
			localGroups += int64(len(t.order))
		}
	}
	localRows += atomic.LoadInt64(&spilledRows)
	localGroups += atomic.LoadInt64(&spilledGroups)

	mergeStart := time.Now()
	merged := make([][]*aggGroup, mergeParts)
	mergeWorkers := min(workers, mergeParts)
	var bclaim int64
	var mwg sync.WaitGroup
	mwg.Add(mergeWorkers)
	for w := 0; w < mergeWorkers; w++ {
		go func() {
			defer mwg.Done()
			for {
				if atomic.LoadInt32(&stop) != 0 || checkCancel() {
					return
				}
				b := int(atomic.AddInt64(&bclaim, 1) - 1)
				if b >= mergeParts {
					return
				}
				seen := make(map[string]*aggGroup)
				var out []*aggGroup
				fold := func(srcIdx int, g *aggGroup) error {
					dst, ok := seen[g.key]
					if !ok {
						g.stamp = int64(srcIdx)<<32 | int64(g.seq)
						seen[g.key] = g
						out = append(out, g)
						return nil
					}
					for a := range dst.accs {
						if err := mergeAccumulators(dst.accs[a], g.accs[a]); err != nil {
							return err
						}
					}
					return nil
				}
				for srcIdx, src := range sources {
					if src.table != nil {
						for _, g := range src.table.bucketGroups(b) {
							if err := fold(srcIdx, g); err != nil {
								fail(err)
								return
							}
						}
						continue
					}
					// Each merge worker opens its own reader: SpillRun reads
					// go through ReadAt and are concurrency-safe.
					rr := src.run.NewReader()
					for {
						if atomic.LoadInt32(&stop) != 0 || checkCancel() {
							return
						}
						rec, err := rr.Next()
						if err != nil {
							fail(err)
							return
						}
						if rec == nil {
							break
						}
						g, err := decodeSpilledGroup(rec, eval.aggs, int32(b), mergeParts)
						if err != nil {
							fail(err)
							return
						}
						if g == nil {
							continue // other merge partition
						}
						if err := fold(srcIdx, g); err != nil {
							fail(err)
							return
						}
					}
				}
				merged[b] = out
			}
		}()
	}
	mwg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	total := 0
	for _, g := range merged {
		total += len(g)
	}
	all := make([]*aggGroup, 0, total)
	for _, g := range merged {
		all = append(all, g...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].stamp < all[j].stamp })

	// Global aggregation over an empty input yields one row, exactly like
	// the sequential operator.
	if eval.ngroups == 0 && len(all) == 0 {
		t := newAggTable(eval.aggs, 1)
		t.insert(nil, nil)
		all = t.order
	}
	mergeWall := time.Since(mergeStart)

	if st != nil {
		ctx.mu.Lock()
		st.Pipelines = workers
		st.MergeParts = mergeParts
		st.LocalRows = localRows
		st.LocalGroups = localGroups
		st.MergedGroups = int64(len(all))
		st.MaxWorkerRows = slices.Max(workerRows)
		st.LocalWallUS = localWall.Microseconds()
		st.MergeWallUS = mergeWall.Microseconds()
		if acct.enabled() {
			st.MemPeakBytes = atomic.LoadInt64(&opPeak)
			st.MemLimitBytes = acct.limit
			st.Spills = atomic.LoadInt64(&opSpills)
			st.SpillBytes = atomic.LoadInt64(&opSpillBytes)
		}
		ctx.mu.Unlock()
	}
	return emitGroupRows(all, eval.aggs), nil
}

// --- parallel hash-join build ------------------------------------------------

// encRef locates one encoded build key in its chunk's arena.
type encRef struct {
	row    int32
	lo, hi int32
	bucket int32
}

// encChunk is one worker's contiguous share of the build rows: a key arena
// plus the refs of the non-NULL-key rows, in row order.
type encChunk struct {
	arena []byte
	refs  []encRef
}

// buildParallel constructs the partitioned hash table in two phases:
//
//	phase A: workers take contiguous row chunks, evaluate the build keys
//	(each worker compiles its own copy — compiled expressions hold state,
//	and prepareJoin admitted only stateless keys) and encode them into a
//	per-chunk byte arena, bucketing each by hash.
//
//	phase B: workers claim buckets and build each bucket's map by walking
//	the chunks in index order. Chunks are contiguous ascending row ranges
//	and refs within a chunk are in row order, so every key's candidate
//	list comes out in build-input order — the property probe emission and
//	LEFT OUTER semantics observe.
func (j *joinIter) buildParallel(rows [][]variant.Value) error {
	parts := j.buildWorkers
	workers := j.buildWorkers
	if workers > len(rows) {
		workers = len(rows)
	}
	chunkLen := (len(rows) + workers - 1) / workers
	var spans [][2]int
	for lo := 0; lo < len(rows); lo += chunkLen {
		hi := lo + chunkLen
		if hi > len(rows) {
			hi = len(rows)
		}
		spans = append(spans, [2]int{lo, hi})
	}

	chunks := make([]encChunk, len(spans))
	var stop int32
	var errOnce sync.Once
	var firstErr error
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		atomic.StoreInt32(&stop, 1)
	}
	checkCancel := func() bool {
		if err := j.ectx.cancelled(); err != nil {
			fail(err)
			return true
		}
		return false
	}

	localStart := time.Now()
	var wg sync.WaitGroup
	wg.Add(len(spans))
	for si, span := range spans {
		go func(si, lo, hi int) {
			defer wg.Done()
			fns := make([]evalFn, len(j.rightKeyExprs))
			for i, k := range j.rightKeyExprs {
				fn, err := compileExpr(j.rightSchema, k)
				if err != nil {
					fail(err)
					return
				}
				fns[i] = fn
			}
			var arena []byte
			refs := make([]encRef, 0, hi-lo)
			for r := lo; r < hi; r++ {
				if atomic.LoadInt32(&stop) != 0 {
					return
				}
				if (r-lo)%256 == 0 && checkCancel() {
					return
				}
				start := len(arena)
				skip := false
				for _, fn := range fns {
					v, err := fn(rows[r])
					if err != nil {
						fail(err)
						return
					}
					if v.IsNull() {
						skip = true // NULL keys never match in equi-joins
						break
					}
					arena = v.AppendGroupKey(arena)
				}
				if skip {
					arena = arena[:start]
					continue
				}
				refs = append(refs, encRef{
					row: int32(r), lo: int32(start), hi: int32(len(arena)),
					bucket: bucketOfKey(arena[start:], parts),
				})
			}
			chunks[si] = encChunk{arena: arena, refs: refs}
		}(si, span[0], span[1])
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	localWall := time.Since(localStart)

	mergeStart := time.Now()
	j.parts = make([]map[string]*buildList, parts)
	var bclaim int64
	var mwg sync.WaitGroup
	mwg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer mwg.Done()
			for {
				if atomic.LoadInt32(&stop) != 0 || checkCancel() {
					return
				}
				b := int(atomic.AddInt64(&bclaim, 1) - 1)
				if b >= parts {
					return
				}
				m := make(map[string]*buildList)
				for _, c := range chunks {
					for _, ref := range c.refs {
						if int(ref.bucket) != b {
							continue
						}
						key := c.arena[ref.lo:ref.hi]
						e, ok := m[string(key)]
						if !ok {
							e = &buildList{}
							m[string(key)] = e
						}
						e.rows = append(e.rows, rows[ref.row])
					}
				}
				j.parts[b] = m
			}
		}()
	}
	mwg.Wait()
	if firstErr != nil {
		return firstErr
	}
	mergeWall := time.Since(mergeStart)

	if j.st != nil {
		var keys int64
		for _, m := range j.parts {
			keys += int64(len(m))
		}
		var maxChunk int64
		for _, s := range spans {
			if n := int64(s[1] - s[0]); n > maxChunk {
				maxChunk = n
			}
		}
		j.st.Pipelines = len(spans)
		j.st.MergeParts = parts
		j.st.LocalRows = int64(len(rows))
		j.st.MergedGroups = keys
		j.st.MaxWorkerRows = maxChunk
		j.st.LocalWallUS = localWall.Microseconds()
		j.st.MergeWallUS = mergeWall.Microseconds()
	}
	return nil
}

// --- parallel sort -----------------------------------------------------------

// parallelSortRefs sorts the ref slice with per-worker sorted runs joined by
// a stability-preserving multiway merge. Runs are contiguous ascending
// spans, each stably sorted in place; the merge picks the smallest head,
// breaking ties toward the earliest run — which holds the earliest input
// indices — so the result is exactly the global stable sort. less must be
// pure (the sort keys are pre-evaluated), which lets every worker share it.
// The driver-side merge loop polls the query context so a cancelled sort
// aborts promptly.
func parallelSortRefs(ctx *execContext, refs []sortRef, less func(a, b sortRef) bool, workers int, st *OpStats) ([]sortRef, error) {
	n := len(refs)
	if workers > n {
		workers = n
	}
	chunkLen := (n + workers - 1) / workers
	var runs [][]sortRef
	for lo := 0; lo < n; lo += chunkLen {
		hi := lo + chunkLen
		if hi > n {
			hi = n
		}
		runs = append(runs, refs[lo:hi:hi])
	}

	localStart := time.Now()
	var wg sync.WaitGroup
	wg.Add(len(runs))
	for _, run := range runs {
		go func(run []sortRef) {
			defer wg.Done()
			sort.SliceStable(run, func(a, b int) bool { return less(run[a], run[b]) })
		}(run)
	}
	wg.Wait()
	localWall := time.Since(localStart)

	mergeStart := time.Now()
	out := make([]sortRef, 0, n)
	idx := make([]int, len(runs))
	for len(out) < n {
		if len(out)%4096 == 0 {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
		}
		best := -1
		for r := range runs {
			if idx[r] >= len(runs[r]) {
				continue
			}
			// Strict less: on ties the earliest run wins, preserving
			// stability across runs.
			if best < 0 || less(runs[r][idx[r]], runs[best][idx[best]]) {
				best = r
			}
		}
		out = append(out, runs[best][idx[best]])
		idx[best]++
	}
	mergeWall := time.Since(mergeStart)

	if st != nil {
		var maxRun int64
		for _, run := range runs {
			if int64(len(run)) > maxRun {
				maxRun = int64(len(run))
			}
		}
		st.Pipelines = len(runs)
		st.MergeParts = len(runs)
		st.LocalRows = int64(n)
		st.MaxWorkerRows = maxRun
		st.LocalWallUS = localWall.Microseconds()
		st.MergeWallUS = mergeWall.Microseconds()
	}
	return out, nil
}
