package engine

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"jsonpark/internal/vector"
)

// Live progress introspection. Every query prepared through PrepareOpts
// registers one queryProgress with its engine for the duration of RunCtx;
// prepare wraps each operator in a progIter bumping lock-free per-operator
// counters, and (*Engine).ProgressSnapshot reads them atomically at any
// moment, so /debug/queries can show per-operator rows/batches/memory for
// queries that are still running. The counters are plain atomics with no
// per-batch allocation — the overhead on the hot path is two atomic adds
// per operator per batch.

// opProgress is one operator's live counters, shared between the executing
// goroutines (writers) and ProgressSnapshot (reader).
type opProgress struct {
	node    Node // described when a snapshot is taken, not on every bind
	depth   int
	rows    atomic.Int64
	batches atomic.Int64
	mem     atomic.Int64
}

func (p *opProgress) addRows(rows int64) {
	if p == nil {
		return
	}
	p.rows.Add(rows)
	p.batches.Add(1)
}

// addMem shifts the operator's currently-charged byte gauge (negative on
// release/spill). Nil-safe so un-tracked operators cost nothing.
func (p *opProgress) addMem(n int64) {
	if p == nil {
		return
	}
	p.mem.Add(n)
}

// queryProgress is one in-flight query's live state: identity plus one
// opProgress per plan operator in pre-order.
type queryProgress struct {
	id      uint64
	traceID string
	sql     string
	start   time.Time
	ops     []*opProgress
	byNode  map[Node]*opProgress
}

// newQueryProgress walks the physical plan pre-order, allocating one
// counter slot per operator.
func newQueryProgress(plan Node, sql, traceID string) *queryProgress {
	qp := &queryProgress{
		traceID: traceID,
		sql:     sql,
		byNode:  make(map[Node]*opProgress),
	}
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		slot := &opProgress{node: n, depth: depth}
		qp.ops = append(qp.ops, slot)
		qp.byNode[n] = slot
		for _, c := range planChildren(n) {
			walk(c, depth+1)
		}
	}
	walk(plan, 0)
	return qp
}

// progFor returns the live counter slot for a plan node (nil when the query
// is not progress-tracked or the node is synthetic).
func (c *execContext) progFor(n Node) *opProgress {
	if c == nil || c.prog == nil || n == nil {
		return nil
	}
	return c.prog.byNode[n]
}

// progIter bumps the operator's live counters for every emitted batch.
type progIter struct {
	in batchIter
	p  *opProgress
}

func (pi *progIter) NextBatch() (*vector.Batch, error) {
	b, err := pi.in.NextBatch()
	if b != nil {
		pi.p.addRows(int64(b.NumRows()))
	}
	return b, err
}

func (pi *progIter) Close() { pi.in.Close() }

// OpProgress is the atomic snapshot of one operator's live counters, in
// plan pre-order (Depth reconstructs the tree shape).
type OpProgress struct {
	Op       string `json:"op"`
	Detail   string `json:"detail,omitempty"`
	Depth    int    `json:"depth"`
	Rows     int64  `json:"rows"`
	Batches  int64  `json:"batches"`
	MemBytes int64  `json:"mem_bytes,omitempty"`
}

// QueryProgress is the snapshot of one in-flight query.
type QueryProgress struct {
	TraceID   string       `json:"trace_id,omitempty"`
	SQL       string       `json:"sql"`
	Start     time.Time    `json:"start"`
	ElapsedUS int64        `json:"elapsed_us"`
	Operators []OpProgress `json:"operators"`
}

// progressTable tracks every registered in-flight query of one engine.
type progressTable struct {
	mu   sync.Mutex
	seq  uint64
	live map[uint64]*queryProgress
}

func (t *progressTable) add(qp *queryProgress) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.live == nil {
		t.live = make(map[uint64]*queryProgress)
	}
	t.seq++
	qp.id = t.seq
	qp.start = time.Now()
	t.live[qp.id] = qp
}

func (t *progressTable) remove(qp *queryProgress) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.live, qp.id)
}

// ProgressSnapshot returns the live per-operator counters of every query
// currently executing on this engine, oldest first. Counters are read
// atomically while the queries keep running, so successive snapshots of the
// same query show monotonically growing rows/batches.
func (e *Engine) ProgressSnapshot() []QueryProgress {
	e.progress.mu.Lock()
	qps := make([]*queryProgress, 0, len(e.progress.live))
	for _, qp := range e.progress.live {
		qps = append(qps, qp)
	}
	e.progress.mu.Unlock()
	sort.Slice(qps, func(i, j int) bool { return qps[i].id < qps[j].id })
	out := make([]QueryProgress, len(qps))
	for i, qp := range qps {
		s := QueryProgress{
			TraceID:   qp.traceID,
			SQL:       qp.sql,
			Start:     qp.start,
			ElapsedUS: time.Since(qp.start).Microseconds(),
			Operators: make([]OpProgress, len(qp.ops)),
		}
		for j, op := range qp.ops {
			name, detail := describeNode(op.node)
			s.Operators[j] = OpProgress{
				Op:       name,
				Detail:   detail,
				Depth:    op.depth,
				Rows:     op.rows.Load(),
				Batches:  op.batches.Load(),
				MemBytes: op.mem.Load(),
			}
		}
		out[i] = s
	}
	return out
}
