package engine

import (
	"sort"
	"sync"
	"time"
)

// Live progress introspection. Every query prepared through PrepareOpts
// registers its queryProgress — the plan's per-node records — with its engine
// for the duration of RunCtx, and (*Engine).ProgressSnapshot reads the
// records' atomics at any moment, so /debug/queries shows per-operator
// rows/batches/memory for queries that are still running. The counters are
// the ones EXPLAIN ANALYZE reports: the operator envelope adds into them on
// the driver and on every worker chain alike.

// queryProgress is one query's record table: identity plus one OpStats per
// plan operator in pre-order.
type queryProgress struct {
	id      uint64
	traceID string
	sql     string
	start   time.Time
	ops     []*OpStats
	byNode  map[Node]*OpStats
}

// newQueryProgress walks the physical plan pre-order, allocating one record
// per operator.
func newQueryProgress(plan Node, sql, traceID string) *queryProgress {
	qp := &queryProgress{
		traceID: traceID,
		sql:     sql,
		byNode:  make(map[Node]*OpStats),
	}
	var walk func(n Node, depth int)
	walk = func(n Node, depth int) {
		st := &OpStats{node: n, depth: depth}
		qp.ops = append(qp.ops, st)
		qp.byNode[n] = st
		if j, ok := n.(*JoinNode); ok && j.Match != nil {
			// The match pass's exchange: read through its join's line.
			qp.byNode[j.Match] = &OpStats{node: j.Match, depth: depth}
		}
		inputSlots(n, func(in *Node) { walk(*in, depth+1) })
	}
	walk(plan, 0)
	return qp
}

// statsFor returns a plan node's record. The table is complete from bind on
// and never written after, so workers look records up concurrently; a node
// outside it (a view refresh's, a view suffix replay's) meters into a record
// of its own that nothing reads.
func (c *execContext) statsFor(n Node) *OpStats {
	if c.prog != nil {
		if st := c.prog.byNode[n]; st != nil {
			return st
		}
	}
	return &OpStats{node: n}
}

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
				MemBytes: op.held.Load(),
			}
		}
		out[i] = s
	}
	return out
}
