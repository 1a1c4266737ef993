package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// Parallel execution. The ordered exchange parallelizes the streaming half of
// a pipeline, hash-join probes and a left build's match pass included; of the
// blocking half, only the hash aggregation's phase 1 fans out (foldParts,
// over the worker loop fanOut), while keeping every output byte identical to
// the sequential operator — the ordering argument is spelled out at
// aggMerger. The plan carries no parallel node for it: the aggregate decides
// when it first runs (aggFanOut). The join build and the sort each fill one
// table on the driver at every parallelism (exec.go).

// aggSpanFanout is the number of phase-1 claims per aggregation worker. Each
// claim is a contiguous span of storage partitions sharing one local table:
// contiguity keeps the ordering proof (span-index order = input row order),
// while spanning several partitions amortizes the per-table group-insert
// cost — one table per storage partition degenerates into insert-per-row
// whenever partitions hold fewer rows than the group cardinality. A few
// spans per worker keeps claims balanced without shrinking the tables much.
const aggSpanFanout = 2

// staticBatches replays a pre-materialized batch list; a segment's worker
// chain sources from it (segmentRun).
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

// compiledStage is one pipeline stage's compiled expressions. The stage
// builder — compileStage, then instantiate — is the only way a Filter,
// Project, Flatten or streamed Aggregate operator is made: once per stage for
// the driver's tree (prepareStage) and once per worker for each segment
// replay, where the worker owns it (compiled expressions hold state) across
// its partitions or morsels. A worker's join probe is made the same way over
// the table the driver built (joinIter makes its own).
type compiledStage struct {
	node   Node
	agg    *aggEval       // an aggregate's grouping and arguments
	dag    *exprDAG       // the condition, select list, FLATTEN input or agg's DAG
	rng    bool           // a FLATTEN over ARRAY_RANGE: dag holds its bounds
	stream *streamAggIter // the streamed aggregate last instantiated
	join   joinExprs      // a probe's keys and residual
	built  *joinBuilt     // the table a probe reads
}

// compileStage compiles one Filter, Project, Flatten or Aggregate node's
// expressions against its input schema. With typed registers on, a FLATTEN
// over ARRAY_RANGE(lo, hi) compiles the two bounds and streams the integers
// instead of building the array. A FLATTEN's lower bound (From) compiles as
// the DAG's last root.
func compileStage(ctx *execContext, n Node) (compiledStage, error) {
	s := compiledStage{node: n}
	var err error
	switch x := n.(type) {
	case *FilterNode:
		s.dag, err = compileVec(ctx, n, x.Input.Schema(), x.Cond)
	case *ProjectNode:
		s.dag, err = compileVecs(ctx, n, x.Input.Schema(), x.Exprs)
	case *FlattenNode:
		exprs := []sqlast.Expr{x.Expr}
		if call, ok := arrayRangeCall(x.Expr); ok && (ctx == nil || !ctx.typedOff) {
			s.rng, exprs = true, call.Args
		}
		if x.From != nil {
			exprs = append(exprs[:len(exprs):len(exprs)], x.From.Expr) // a copy: never the call's arguments
		}
		s.dag, err = compileVecs(ctx, n, x.Input.Schema(), exprs)
	case *AggregateNode:
		if s.agg, err = compileAggEval(ctx, x); err == nil {
			s.dag = s.agg.dag
		}
	case *JoinNode:
		s.join, err = compileJoin(ctx, x)
	default:
		err = fmt.Errorf("engine: node %T is not a pipeline stage", n)
	}
	return s, err
}

// compileStages compiles a segment's stage chain (execution order) for one
// worker.
func compileStages(ctx *execContext, stages []Node) ([]compiledStage, error) {
	out := make([]compiledStage, len(stages))
	for i, n := range stages {
		var err error
		if out[i], err = compileStage(ctx, n); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// instantiate wraps in with the stage's operator, over the stage's own DAG;
// an aggregate stage is streamed.
func (s *compiledStage) instantiate(in batchIter, batchSize int) batchIter {
	switch x := s.node.(type) {
	case *JoinNode:
		return &joinProbe{in: in, b: s.built, keys: s.join.left, residual: s.join.residual, size: batchSize}
	case *FilterNode:
		return &filterIter{in: in, cond: s.dag}
	case *ProjectNode:
		return &projectIter{in: in, dag: s.dag}
	case *FlattenNode:
		f := newFlattenIter(in, s.dag, x.Outer, s.rng, len(x.Input.Schema().Names), batchSize)
		f.from = x.From
		return f
	}
	s.stream = newStreamAggIter(in, s.agg, batchSize)
	return s.stream
}

// instantiateChain assembles one worker's operator chain over src from its
// compiled stages, every operator — the source included — in the envelope
// prepare puts around the driver's: each polls cancellation, checks under
// plan-check and adds into the node's shared record. A plain scan's exchange
// meters the scan's rows in its own envelope, so its workers' source meters
// into a record nothing reads.
func instantiateChain(ctx *execContext, p *segmentPlan, src batchIter, cs []compiledStage) batchIter {
	st := p.scanSt
	if p.outerScan {
		st = &OpStats{node: p.scan}
	}
	it := ctx.envelop(src, st, false)
	for i := range cs {
		s := &cs[i]
		it = ctx.envelop(s.instantiate(it, p.batch), ctx.statsFor(s.node), false)
	}
	return it
}

// --- segment replay -----------------------------------------------------------

// segmentPlan is a segment as workers replay it over pinned partitions — the
// exchange's morsels, a fanned-out aggregate's spans, a view's delta: the
// scan and its stages (execution order), the row-ID counters to restart, and
// the scan's record.
type segmentPlan struct {
	scan      *ScanNode
	stages    []Node
	counters  []counterRef
	colIdx    []int
	batch     int      // rows per batch inside the workers
	scanSt    *OpStats // the scan's record: partitions, bytes and rows
	outerScan bool     // a plain scan's exchange, whose envelope meters the rows
	// builds[i] is the table probe stage i reads, built by the driver before
	// the workers start; nil for every other stage.
	builds []*joinBuilt
	// match, when set, is the left build of join matchOf whose match pass
	// ends the segment (matchIter).
	match   *joinBuilt
	matchOf *JoinNode
}

func newSegmentPlan(ctx *execContext, scan *ScanNode, stages []Node, counters []counterRef, batch int) (*segmentPlan, error) {
	colIdx, err := scanColumns(scan)
	if err != nil {
		return nil, err
	}
	return &segmentPlan{
		scan: scan, stages: stages, counters: counters, colIdx: colIdx, batch: batch,
		scanSt: ctx.statsFor(scan),
	}, nil
}

// segmentRun is one worker's compiled copy of a segment (compiled
// expressions hold state), rewound for every replay.
type segmentRun struct {
	plan     *segmentPlan
	ctx      *execContext
	filter   *exprDAG
	src      staticBatches
	out      batchIter
	stages   []compiledStage
	counters []*exprNode
	// held: out's batches are the worker's own, charged while in flight — a
	// stage's, copied from the registers its next call recycles (detach), or
	// the match pass's fresh copies; a bare scan's are the storage's.
	held, detach bool
}

func (p *segmentPlan) compile(ctx *execContext) (*segmentRun, error) {
	r := &segmentRun{plan: p, ctx: ctx}
	var err error
	if p.scan.Filter != nil {
		if r.filter, err = compileVec(ctx, p.scan, p.scan.Schema(), p.scan.Filter); err != nil {
			return nil, err
		}
	}
	if r.stages, err = compileStages(ctx, p.stages); err != nil {
		return nil, err
	}
	for i, b := range p.builds {
		r.stages[i].built = b
	}
	for _, c := range p.counters {
		n := r.stages[c.stage].dag.counter(c.expr)
		if n == nil {
			return nil, fmt.Errorf("engine: internal error: exchange counter %v compiled to no SEQ node", c)
		}
		r.counters = append(r.counters, n)
	}
	r.out = instantiateChain(ctx, p, &r.src, r.stages)
	r.held = len(r.stages) > 0 || p.match != nil
	r.detach = p.match == nil && r.held
	if p.match != nil {
		x := p.matchOf
		keys, err := compileVecs(ctx, x, x.Right.Schema(), x.RightKeys)
		if err != nil {
			r.out.Close()
			return nil, err
		}
		r.out = &matchIter{in: r.out, b: p.match, keys: keys}
	}
	return r, nil
}

// replay rewinds the chain, r.out, over rows [lo, hi) of each partition of
// parts in turn — one morsel, or whole partitions with hi past their ends.
// Partitions the zone maps rule out are skipped and counted as
// scanIter counts them; cancellation is polled per partition. Streamed
// aggregates reopen and counters restart at 0.
func (r *segmentRun) replay(parts []*storage.Partition, lo, hi int) error {
	r.src = staticBatches{batches: r.src.batches[:0]}
	for _, p := range parts {
		if err := r.ctx.cancelled(); err != nil {
			return err
		}
		if partitionPruned(r.plan.scan, p) {
			r.ctx.addScanCounts(r.plan.scanSt, 0, 1, 0)
			continue
		}
		batches, bytes, err := scanPartition(r.ctx, p, r.plan.colIdx, r.filter, r.plan.batch, lo, hi)
		r.ctx.addScanCounts(r.plan.scanSt, 0, 0, bytes)
		if err != nil {
			return err
		}
		r.src.batches = append(r.src.batches, batches...)
	}
	for i := range r.stages {
		if s := r.stages[i].stream; s != nil {
			s.rewind()
		}
	}
	for _, c := range r.counters {
		c.seq = 0
	}
	return nil
}

func (r *segmentRun) close() { r.out.Close() }

// fanOut runs work on up to workers goroutines that claim the items 0..n-1
// in turn through next, which reports false once the items run out, a
// worker failed, or the query is cancelled. It returns the first error.
func fanOut(ctx *execContext, workers, n int, work func(w int, next func() (int, bool)) error) error {
	var claim atomic.Int64
	var stop atomic.Bool
	var once sync.Once
	var first error
	fail := func(err error) {
		once.Do(func() { first = err })
		stop.Store(true)
	}
	next := func() (int, bool) {
		if stop.Load() {
			return 0, false
		}
		if err := ctx.cancelled(); err != nil {
			fail(err)
			return 0, false
		}
		i := int(claim.Add(1) - 1)
		return i, i < n
	}
	var wg sync.WaitGroup
	for w := range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := work(w, next); err != nil {
				fail(err)
			}
		}()
	}
	wg.Wait()
	return first
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

// workerBatch is the batch size a segment's workers evaluate: the query's,
// capped at maxWorkerBatchRows when a FLATTEN or streamed aggregate stage's
// register file grows with it. A segment of filters, projections and probes
// keeps full batches: its registers are a few columns wide.
func workerBatch(ctx *execContext, stages []Node) int {
	for _, n := range stages {
		switch n.(type) {
		case *FlattenNode, *AggregateNode:
			return min(ctx.batchSize, maxWorkerBatchRows)
		}
	}
	return ctx.batchSize
}

// morsel is rows [lo, hi) of pinned partition part.
type morsel struct{ part, lo, hi int }

// morselOut is one morsel's output as a worker hands it to the driver.
type morselOut struct {
	k       int             // morsel index; -1 for a worker that failed to start
	batches []*vector.Batch // detached: the worker's chain recycles its own
	issued  []int64         // row IDs each counter issued in the morsel
	bytes   int64           // charged to the exchange's opMem until handed out
	err     error           // the morsel's first error, raised after its batches
}

// exchangeIter runs an ExchangeNode's segment — a left build's match pass
// (JoinNode.Match) included, or, with no node, a plain scan — on a pool of
// workers. Workers claim morsels from an atomic counter, each holding one
// token of a bounded window, replay the segment over the morsel on their own
// compiled stages, and hand the detached output to the driver, which
// releases morsels strictly in morsel order and returns each one's token on
// release.
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
// its rows in the sequential order too. A probe emits each input row's
// candidates in right-input order, row after row, so its morsels' outputs
// concatenate to the sequential join's; the driver builds every probed table
// first, outermost join first as the sequential pipeline does, so a build's
// error comes before any row. The first error in row order is the first
// errored morsel's, raised after its earlier batches.
type exchangeIter struct {
	ctx   *execContext
	node  *ExchangeNode // nil: a plain scan, whose morsels are whole partitions
	seg   *segmentPlan
	parts []*storage.Partition
	// mem charges the detached batches workers hand over until they are
	// handed out; its record is the exchange node's.
	mem *opMem
	// seq is the sequential pipeline prepared at bind. It serves whenever the
	// segment does not fan out; when it does, it holds the probed tables until
	// Close.
	seq batchIter
	// joins are the driver's joins the probe stages read, execution order.
	joins []*joinIter

	started  bool
	fanned   bool
	err      error // a build's error, raised before any row
	morsels  []morsel
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
	seg, err := newSegmentPlan(ctx, x.Scan, x.Stages, x.Counters, workerBatch(ctx, x.Stages))
	if err != nil {
		seq.Close()
		return nil, err
	}
	ex := newExchangeIter(ctx, x, seg, seq)
	for i, n := range x.Stages {
		if jn, ok := n.(*JoinNode); ok {
			j := ctx.joins[jn]
			if seg.builds == nil {
				seg.builds = make([]*joinBuilt, len(x.Stages))
			}
			seg.builds[i], ex.joins = &j.joinBuilt, append(ex.joins, j)
		}
	}
	return ex, nil
}

func newExchangeIter(ctx *execContext, node *ExchangeNode, seg *segmentPlan, seq batchIter) *exchangeIter {
	return &exchangeIter{
		ctx: ctx, node: node, seg: seg, seq: seq, mem: ctx.opMemFor(node),
		parts: ctx.pinSnapshot(seg.scan.Table).Parts,
	}
}

// start decides, on the first NextBatch, whether the segment fans out: it
// must be eligible, run at parallelism > 1 and cut into two morsels or more
// after pruning, and the tables its probes read must build in memory.
// Otherwise the sequential pipeline serves and the node records why. An
// empty table yields no morsels and starts no goroutine.
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
	if why == "" {
		why = x.build()
	}
	if why != "" || x.err != nil {
		x.mem.st.Sequential = why
		return
	}
	x.fanned = true
	workers := min(x.ctx.parallelism, len(x.morsels))
	x.offsets = make([]int64, len(x.seg.counters))
	x.mem.st.Workers, x.mem.st.Morsels = workers, len(x.morsels)
	x.ctx.addScanCounts(x.seg.scanSt, len(x.parts), pruned, 0)
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
		go x.work(&claim)
	}
}

// build builds the tables the probe stages read, outermost join first as the
// sequential pipeline would, keeping the first error in x.err. It returns why
// the segment stays sequential after all: a spilled build decodes its rows
// through one scratch batch, so only the driver's probe may read it.
func (x *exchangeIter) build() string {
	for i := len(x.joins) - 1; i >= 0; i-- {
		if x.err = x.joins[i].ensureBuilt(); x.err != nil {
			return ""
		}
	}
	for _, j := range x.joins {
		if j.store.run != nil {
			return "join build spilled"
		}
	}
	return ""
}

// cut splits the pinned, unpruned partitions into morsels and returns the
// pruned count. A plain scan's morsels are whole partitions; a segment's are
// runs of minMorselRows rounded up to whole worker batches, so no morsel but
// a partition's last ends in a short batch.
func (x *exchangeIter) cut() (pruned int) {
	size := 0
	if x.node != nil {
		b := x.seg.batch
		size = (cmp.Or(x.ctx.morselRows, minMorselRows) + b - 1) / b * b
	}
	for i, p := range x.parts {
		if partitionPruned(x.seg.scan, p) {
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
func (x *exchangeIter) work(claim *atomic.Int64) {
	defer x.wg.Done()
	r, err := x.seg.compile(x.ctx)
	if err != nil {
		x.send(&morselOut{k: -1, err: err})
		return
	}
	defer r.close()
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
		out := x.runMorsel(r, k)
		if !x.send(out) || out.err != nil {
			return
		}
	}
}

// send hands a result to the driver unless the exchange stopped; Close
// returns the accounted bytes of results never handed over.
func (x *exchangeIter) send(out *morselOut) bool {
	select {
	case x.results <- out:
		return true
	case <-x.stop:
		return false
	}
}

// runMorsel replays the segment over morsel k on the worker's run r.
func (x *exchangeIter) runMorsel(r *segmentRun, k int) *morselOut {
	m := x.morsels[k]
	out := &morselOut{k: k}
	if err := r.replay(x.parts[m.part:m.part+1], m.lo, m.hi); err != nil {
		out.err = err
		return out
	}
	for !x.halt.Load() {
		b, err := r.out.NextBatch()
		if err != nil || b == nil {
			out.err = err
			break
		}
		if r.detach {
			// A stage's batch is recycled by its next call. One with most
			// rows filtered out is kept compacted.
			if 2*b.NumRows() < b.Len() {
				b = b.Compact()
			} else {
				b = b.Detach()
			}
		}
		if r.held {
			if x.mem.enabled() {
				nb := activeRowsBytes(b)
				x.mem.charge(nb)
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

func (x *exchangeIter) NextBatch() (*vector.Batch, error) {
	if !x.started {
		x.start()
	}
	if !x.fanned {
		if x.err != nil {
			return nil, x.err
		}
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

// release makes morsel next current, renumbers its row IDs and returns its
// token, so the workers may claim one morsel further.
func (x *exchangeIter) release() error {
	slot := x.next % len(x.window)
	for x.window[slot] == nil {
		out, err := x.recv()
		if err != nil {
			return err
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
		x.mem.release(out.bytes)
		out.bytes = 0
	}
}

// Close stops the workers, waits for them to exit and returns every
// accounted byte still held — of the morsel being handed out, the window, the
// results queue and the results never sent — then closes the sequential
// pipeline, releasing the tables the workers read; safe before the first
// NextBatch and twice.
func (x *exchangeIter) Close() {
	if x.stop != nil {
		x.stopOnce.Do(func() {
			x.halt.Store(true)
			close(x.stop)
			x.wg.Wait()
			x.mem.releaseAll()
		})
	}
	if x.seq != nil {
		x.seq.Close()
		x.seq = nil
	}
}

// --- fanned-out hash aggregation ----------------------------------------------

// aggFanOut decides, on a hash aggregate's first NextBatch, whether its
// phase 1 fans out over workers (parallelAgg): the plan found it
// eligible (AggregateNode.Why), the query runs at parallelism > 1, and the
// pinned snapshot of its table holds more than one partition. Otherwise the
// node's record notes why the aggregate stays sequential.
func aggFanOut(ctx *execContext, x *AggregateNode) bool {
	why := x.Why
	switch {
	case why != "":
	case ctx.parallelism < 2:
		why = "parallelism 1"
	case len(ctx.pinSnapshot(x.Scan.Table).Parts) < 2:
		why = "one partition"
	}
	if why != "" {
		ctx.statsFor(x).Sequential = why
		return false
	}
	ctx.mu.Lock()
	ctx.metrics.ParallelBreakers++
	ctx.mu.Unlock()
	return true
}

// parallelAgg is a fanned-out aggregate's phase 1, in place of the
// sequential pipeline bind prepared: foldParts over the pinned partitions of
// the aggregate's segment, aggSpanFanout spans per worker. It records the
// phase's stats.
func parallelAgg(ctx *execContext, x *AggregateNode, mem *opMem) ([]*aggSpan, error) {
	seg, err := newSegmentPlan(ctx, x.Scan, x.Stages, nil, ctx.batchSize)
	if err != nil {
		return nil, err
	}
	parts := ctx.pinSnapshot(x.Scan.Table).Parts
	start := time.Now()
	spans, workerRows, err := foldParts(ctx, x, seg, parts, min(ctx.parallelism*aggSpanFanout, len(parts)), mem)
	if err != nil {
		return spans, err
	}
	st := mem.st
	st.Pipelines = len(workerRows)
	st.MaxWorkerRows = slices.Max(workerRows)
	st.LocalWallUS = time.Since(start).Microseconds()
	for _, s := range spans {
		rows, groups := s.folded()
		st.LocalRows += rows
		st.LocalGroups += groups
	}
	return spans, nil
}

// foldParts is phase 1 over pinned partitions, for a fanned-out aggregate
// and a view refresh: it cuts parts into nspans contiguous spans, which up
// to the query's parallelism of workers claim in turn, replaying the segment
// over a span's partitions in ascending order into a span of its own. Each
// worker compiles its own copy of the segment and the aggregate (compiled
// expressions hold state); all charge mem. It returns the spans in input
// order — span order is partition order, which is input row order — and the
// rows each worker folded.
func foldParts(ctx *execContext, x *AggregateNode, seg *segmentPlan, parts []*storage.Partition, nspans int, mem *opMem) ([]*aggSpan, []int64, error) {
	ctx.addScanCounts(seg.scanSt, len(parts), 0, 0)
	spans := make([]*aggSpan, nspans)
	workerRows := make([]int64, min(ctx.parallelism, nspans))
	err := fanOut(ctx, len(workerRows), nspans, func(w int, next func() (int, bool)) error {
		eval, err := compileAggEval(ctx, x)
		if err != nil {
			return err
		}
		r, err := seg.compile(ctx)
		if err != nil {
			return err
		}
		defer r.close()
		for i, ok := next(); ok; i, ok = next() {
			spans[i] = newAggSpan(eval.aggs)
			err := r.replay(parts[i*len(parts)/nspans:(i+1)*len(parts)/nspans], 0, math.MaxInt)
			if err == nil {
				err = spans[i].fold(r.out, eval, mem)
			}
			if err != nil {
				return err
			}
			rows, _ := spans[i].folded()
			workerRows[w] += rows
		}
		return nil
	})
	return spans, workerRows, err
}
