package engine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"jsonpark/internal/sqlast"
)

// OpStats is one plan node's counter record. Bind allocates one per node of
// the plan (newQueryProgress), and every goroutine that runs the operator —
// the driver's envelope and each worker chain's — adds into the same record:
// ProgressSnapshot reads the atomics live, buildPlanStats reads the whole
// record after Run. WallTime is metered only when the query is analyzed. The
// scan fields are written under the execContext mutex, the breaker and spill
// fields by the operator's driver.
type OpStats struct {
	node    Node // described when a snapshot is taken, not on every bind
	depth   int
	rows    atomic.Int64 // active rows emitted by this operator
	batches atomic.Int64 // vector batches emitted by this operator
	held    atomic.Int64 // accounted bytes the operator retains now (opMem)
	memPeak atomic.Int64 // the most it retained at once
	// Its expression DAGs' typed vectors read by typed kernels, and typed
	// vectors converted to variants (exprDAG.flush).
	typed, fallback atomic.Int64

	WallTime         time.Duration // inclusive: covers all children
	BytesScanned     int64         // scan: column-chunk bytes materialized
	PartitionsTotal  int           // scan: partitions considered
	PartitionsPruned int           // scan: partitions skipped via zone maps

	// Pipeline-breaker phase stats: only a fanned-out hash aggregate fills
	// them (zero elsewhere, the join build and the sort included).
	// Pipelines > 0 marks the operator as having recorded its phases.
	Pipelines     int   // phase-1 workers that ran
	LocalRows     int64 // rows folded into the spans' tables
	LocalGroups   int64 // groups across all the spans' tables (pre-merge)
	MergedGroups  int64 // distinct groups after the merge
	MaxWorkerRows int64 // largest per-worker share of LocalRows (skew indicator)
	LocalWallUS   int64 // wall time of the parallel phase 1, microseconds
	MergeWallUS   int64 // wall time of the ordered phase-2 merge, microseconds

	// Exchange: the workers and morsels it fanned out to. Exchange and hash
	// aggregate: why it ran sequentially.
	Workers    int
	Morsels    int
	Sequential string

	// Join: the build side bind chose and the row bounds it chose from, and
	// the table its build made (joinIter.noteTable), set by the driver.
	build joinBuild
	table string

	// Memory governance (WithMemLimit): spill-to-disk events by this operator
	// and the bytes they wrote.
	Spills     int64
	SpillBytes int64
}

// PlanStats is the annotated plan tree of an analyzed query: one node per
// operator carrying its description and runtime statistics. RowsIn is the
// sum of the children's RowsOut; SelfTime subtracts the children's inclusive
// times from this operator's.
type PlanStats struct {
	Op               string `json:"op"`
	Detail           string `json:"detail,omitempty"`
	RowsIn           int64  `json:"rows_in"`
	RowsOut          int64  `json:"rows_out"`
	TimeUS           int64  `json:"time_us"`
	SelfTimeUS       int64  `json:"self_time_us"`
	BytesScanned     int64  `json:"bytes_scanned,omitempty"`
	PartitionsTotal  int    `json:"partitions_total,omitempty"`
	PartitionsPruned int    `json:"partitions_pruned,omitempty"`
	Batches          int64  `json:"batches,omitempty"`
	Pipelines        int    `json:"pipelines,omitempty"`
	LocalRows        int64  `json:"local_rows,omitempty"`
	LocalGroups      int64  `json:"local_groups,omitempty"`
	MergedGroups     int64  `json:"merged_groups,omitempty"`
	MaxWorkerRows    int64  `json:"max_worker_rows,omitempty"`
	LocalWallUS      int64  `json:"local_wall_us,omitempty"`
	MergeWallUS      int64  `json:"merge_wall_us,omitempty"`
	Workers          int    `json:"workers,omitempty"`
	Morsels          int    `json:"morsels,omitempty"`
	MemPeakBytes     int64  `json:"mem_peak_bytes,omitempty"`
	MemLimitBytes    int64  `json:"mem_limit_bytes,omitempty"`
	Spills           int64  `json:"spills,omitempty"`
	SpillBytes       int64  `json:"spill_bytes,omitempty"`
	// Expression DAGs of the operator (Filter, Project, Flatten, Aggregate,
	// Join): AST nodes compiled, instances evaluated per batch after sharing,
	// and register slots.
	ExprNodes    int `json:"expr_nodes,omitempty"`
	ExprDistinct int `json:"expr_distinct,omitempty"`
	ExprSlots    int `json:"expr_slots,omitempty"`
	// Where typing held in the operator's DAGs: typed vectors its kernels
	// read (a join's keys and an aggregate's inputs read in place included),
	// and typed vectors it converted to variants.
	ExprTyped    int64 `json:"expr_typed,omitempty"`
	ExprFallback int64 `json:"expr_fallback,omitempty"`
	// Storage v2 counters, query-global, set on the root only: the typed and
	// fallback totals over every operator, and partitions read from disk.
	TypedCols    int64        `json:"typed_cols,omitempty"`
	FallbackCols int64        `json:"fallback_cols,omitempty"`
	DiskReads    int64        `json:"disk_reads,omitempty"`
	Children     []*PlanStats `json:"children,omitempty"`
}

// Time returns the operator's inclusive wall time.
func (ps *PlanStats) Time() time.Duration { return time.Duration(ps.TimeUS) * time.Microsecond }

// SelfTime returns the operator's exclusive wall time.
func (ps *PlanStats) SelfTime() time.Duration { return time.Duration(ps.SelfTimeUS) * time.Microsecond }

// Walk visits the node and every descendant pre-order.
func (ps *PlanStats) Walk(fn func(depth int, n *PlanStats)) { ps.walk(0, fn) }

func (ps *PlanStats) walk(depth int, fn func(int, *PlanStats)) {
	fn(depth, ps)
	for _, c := range ps.Children {
		c.walk(depth+1, fn)
	}
}

// buildPlanStats assembles the annotated tree from the executed plan and the
// per-node records of Run; the query's memory limit is reported on the
// operators that charged memory.
func buildPlanStats(n Node, c *execContext) *PlanStats {
	op, detail := describeNode(n)
	st := c.statsFor(n)
	out := &PlanStats{
		Op:               op,
		Detail:           detail,
		RowsOut:          st.rows.Load(),
		TimeUS:           st.WallTime.Microseconds(),
		BytesScanned:     st.BytesScanned,
		PartitionsTotal:  st.PartitionsTotal,
		PartitionsPruned: st.PartitionsPruned,
		Batches:          st.batches.Load(),
		Pipelines:        st.Pipelines,
		LocalRows:        st.LocalRows,
		LocalGroups:      st.LocalGroups,
		MergedGroups:     st.MergedGroups,
		MaxWorkerRows:    st.MaxWorkerRows,
		LocalWallUS:      st.LocalWallUS,
		MergeWallUS:      st.MergeWallUS,
		MemPeakBytes:     st.memPeak.Load(),
		Spills:           st.Spills,
		SpillBytes:       st.SpillBytes,
		Workers:          st.Workers,
		Morsels:          st.Morsels,
		ExprTyped:        st.typed.Load(),
		ExprFallback:     st.fallback.Load(),
	}
	switch x := n.(type) {
	case *ExchangeNode:
		// What the exchange did at run time replaces what it could do.
		switch {
		case st.Workers > 0:
			out.Detail = strings.TrimSpace(fmt.Sprintf("workers=%d morsels=%d %s", st.Workers, st.Morsels, detail))
		case st.Sequential != "":
			out.Detail = "sequential: " + st.Sequential
		}
	case *JoinNode:
		out.Detail += " " + st.build.String()
		if st.table != "" {
			out.Detail += " table=" + st.table
		}
		if x.Match != nil {
			if ms := c.statsFor(x.Match); ms.Workers > 0 {
				out.Detail += fmt.Sprintf(" match[workers=%d morsels=%d]", ms.Workers, ms.Morsels)
			}
		}
		if x.Why != "" {
			out.Detail += " sequential: " + x.Why
		}
	case *AggregateNode:
		// The run-time reason replaces the plan-time verdict it may repeat.
		if st.Sequential != "" {
			out.Detail, _, _ = strings.Cut(detail, " sequential: ")
			out.Detail += " sequential: " + st.Sequential
		}
	}
	if out.MemPeakBytes > 0 || out.Spills > 0 {
		out.MemLimitBytes = c.acct.limit
	}
	if es, ok := nodeExprStats(n); ok {
		out.ExprNodes, out.ExprDistinct, out.ExprSlots = es.Nodes, es.Distinct, es.Slots
	}
	childTime := time.Duration(0)
	inputSlots(n, func(in *Node) {
		cs := buildPlanStats(*in, c)
		out.Children = append(out.Children, cs)
		out.RowsIn += cs.RowsOut
		childTime += cs.Time()
	})
	self := st.WallTime - childTime
	if self < 0 {
		self = 0
	}
	out.SelfTimeUS = self.Microseconds()
	return out
}

// Render formats the annotated tree, one operator per line with its stats —
// the EXPLAIN ANALYZE output of cmd/jsq.
func (ps *PlanStats) Render() string {
	var b strings.Builder
	ps.Walk(func(depth int, n *PlanStats) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Op)
		if n.Detail != "" {
			b.WriteByte(' ')
			b.WriteString(n.Detail)
		}
		fmt.Fprintf(&b, "  (in=%d out=%d time=%s self=%s", n.RowsIn, n.RowsOut, n.Time(), n.SelfTime())
		if n.Op == "Scan" {
			fmt.Fprintf(&b, " bytes=%d partitions=%d/%d pruned=%d batches=%d",
				n.BytesScanned, n.PartitionsTotal-n.PartitionsPruned, n.PartitionsTotal,
				n.PartitionsPruned, n.Batches)
		} else {
			fmt.Fprintf(&b, " batches=%d", n.Batches)
		}
		if n.Pipelines > 0 {
			fmt.Fprintf(&b, " par[pipelines=%d local_rows=%d local_groups=%d merged=%d max_worker_rows=%d local=%s merge=%s]",
				n.Pipelines, n.LocalRows, n.LocalGroups, n.MergedGroups,
				n.MaxWorkerRows,
				time.Duration(n.LocalWallUS)*time.Microsecond,
				time.Duration(n.MergeWallUS)*time.Microsecond)
		}
		if n.ExprNodes > 0 {
			b.WriteByte(' ')
			b.WriteString(exprStats{n.ExprNodes, n.ExprDistinct, n.ExprSlots}.String())
		}
		if n.ExprTyped > 0 || n.ExprFallback > 0 {
			fmt.Fprintf(&b, " typed=%d fallback=%d", n.ExprTyped, n.ExprFallback)
		}
		if n.Spills > 0 || n.MemPeakBytes > 0 {
			fmt.Fprintf(&b, " mem[peak=%d limit=%d spills=%d spill_bytes=%d]",
				n.MemPeakBytes, n.MemLimitBytes, n.Spills, n.SpillBytes)
		}
		if depth == 0 && (n.TypedCols > 0 || n.FallbackCols > 0 || n.DiskReads > 0) {
			fmt.Fprintf(&b, " storage[typed=%d fallback=%d disk_reads=%d]",
				n.TypedCols, n.FallbackCols, n.DiskReads)
		}
		b.WriteString(")\n")
	})
	return b.String()
}

// describeNode renders an operator's name and detail string, shared by
// EXPLAIN and EXPLAIN ANALYZE.
func describeNode(n Node) (op, detail string) {
	switch x := n.(type) {
	case *ScanNode:
		d := fmt.Sprintf("%s cols=%v", x.Table.Name, x.Columns)
		if x.Filter != nil {
			d += " filter=" + sqlast.RenderExpr(x.Filter)
		}
		if len(x.Prunes) > 0 {
			d += fmt.Sprintf(" prunes=%d", len(x.Prunes))
		}
		return "Scan", d
	case *FilterNode:
		return "Filter", sqlast.RenderExpr(x.Cond)
	case *ProjectNode:
		return "Project", fmt.Sprintf("%v", x.Names)
	case *FlattenNode:
		outer := ""
		if x.Outer {
			outer = "outer "
		}
		d := fmt.Sprintf("%s%s as %s", outer, sqlast.RenderExpr(x.Expr), x.Alias)
		if b := x.From; b != nil {
			col, first := "INDEX", sqlast.RenderExpr(b.Expr)
			if b.Value {
				col = "VALUE"
			}
			if b.Strict {
				first = "(" + first + " + 1)"
			}
			d += fmt.Sprintf(" from=%s>=%s", col, first)
		}
		return "Flatten", d
	case *AggregateNode:
		d := fmt.Sprintf("hash groups=%d aggs=%d", len(x.GroupBy), len(x.Aggs))
		if x.Stream {
			d = fmt.Sprintf("stream key=%s aggs=%d", sqlast.RenderExpr(x.GroupBy[0]), len(x.Aggs))
		}
		for i, spec := range x.Aggs {
			if !spec.Top1 {
				continue
			}
			d += " top1(" + x.AggNames[i]
			if keys, ok := objectKeys(spec.Arg); ok {
				d += " carries " + strings.Join(keys, ",")
			}
			d += ")"
		}
		if x.Why != "" {
			d += " sequential: " + x.Why
		}
		return "Aggregate", d
	case *ExchangeNode:
		if x.Why != "" {
			return "Exchange", "sequential: " + x.Why
		}
		var ids []string
		for i, r := range x.Renumber {
			if r > 0 {
				ids = append(ids, x.Schema().Names[i])
			}
		}
		if len(ids) == 0 {
			return "Exchange", ""
		}
		return "Exchange", fmt.Sprintf("renumber=%v", ids)
	case *JoinNode:
		return x.Kind + " Join", fmt.Sprintf("keys=%d", len(x.LeftKeys))
	case *SortNode:
		return "Sort", fmt.Sprintf("keys=%d", len(x.Keys))
	case *LimitNode:
		return "Limit", fmt.Sprint(x.N)
	case *UnionNode:
		return "UnionAll", ""
	}
	return fmt.Sprintf("%T", n), ""
}

// nodeExprStats sizes the expression DAGs prepare compiles for n — did
// sharing fire, how big is the register file — for the operators that
// evaluate expressions per batch: the stage builder's nodes, and a join with
// keys or a residual (its DAGs summed). It compiles afresh, so EXPLAIN can
// print it without executing; a plan that fails to compile reports nothing
// here and its error at Prepare.
func nodeExprStats(n Node) (exprStats, bool) {
	if x, ok := n.(*JoinNode); ok {
		e, err := compileJoin(nil, x)
		st := e.stats()
		return st, err == nil && st.Nodes > 0
	}
	s, err := compileStage(nil, n)
	if err != nil {
		return exprStats{}, false
	}
	return s.dag.stats(), true
}
