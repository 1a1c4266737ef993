package engine

import (
	"strings"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
)

// The physical pass. After the logical optimizer runs, physicalize walks
// the plan and wraps each pipeline breaker that can execute its blocking
// phase in parallel without changing a single output byte:
//
//   - AggregateNode → ParallelAggNode when the input is a straight
//     stateless Filter/Project/Flatten chain over a multi-partition scan
//     and every aggregate merges exactly (see aggsMergeable). Workers claim
//     storage partitions morsel-style, aggregate each into a thread-local
//     table, and the locals merge in parallel across disjoint hash
//     partitions — in storage-partition order, which equals input row
//     order, so first-seen group order, ANY_VALUE, ARRAY_AGG concatenation
//     and DISTINCT first-occurrence dedup all reproduce the sequential
//     result exactly.
//
//   - JoinNode → ParallelJoinNode when it is an equi-join with stateless
//     build keys: the build side partitions across workers into disjoint
//     per-bucket hash tables probed lock-free.
//
//   - SortNode → ParallelSortNode always: sort keys evaluate sequentially
//     during materialization (so even stateful keys see input order); only
//     the comparison-sorting of precomputed keys fans out into per-worker
//     runs joined by a stability-preserving multiway merge.
//
// Everything order-sensitive stays on the sequential operators: SUM and AVG
// fold floats in input order (addition is not associative), stateful (SEQ)
// arguments observe evaluation order, and unknown aggregates must keep
// their lazy error behavior. planck certifies the contracts of the new
// nodes in planck.go.

// ParallelAggNode executes its embedded aggregate as a two-phase
// partitioned hash aggregation over the pipeline below it.
type ParallelAggNode struct {
	*AggregateNode
	// Pipelines caps the phase-1 workers (each runs the scan→…→pre-aggregate
	// pipeline over whole storage partitions).
	Pipelines int
	// MergeParts is the number of disjoint hash partitions the thread-local
	// tables split into for the parallel merge.
	MergeParts int
}

// ParallelJoinNode executes its embedded join with a partitioned parallel
// build phase.
type ParallelJoinNode struct {
	*JoinNode
	// BuildWorkers caps the key-encoding workers; the build side also
	// partitions into BuildWorkers disjoint hash tables.
	BuildWorkers int
}

// ParallelSortNode executes its embedded sort as per-worker sorted runs
// joined by a stable multiway merge.
type ParallelSortNode struct {
	*SortNode
	SortWorkers int
}

// ordering is a node's order property: ordering[i] reports that output
// column i is provably non-decreasing in row order. nil is the empty set.
// Every admitted column descends from a row ID — SEQ8()/SEQ4() optionally
// plus an integer literal — so its values are non-NULL integers, which is
// what lets the streaming aggregate compare keys as int64.
type ordering []bool

func (o ordering) has(i int) bool { return i >= 0 && i < len(o) && o[i] }

// physicalPass carries the knobs of one physicalize walk and counts what it
// decided.
type physicalPass struct {
	par, mergeParts int
	// hashOnly keeps every aggregate on the hash path (Engine.forceHashAgg,
	// the differential tests' oracle).
	hashOnly bool
	physicalCounts
}

// physicalCounts is what one physicalize walk decided: pipeline breakers
// wrapped in their parallel nodes, aggregates marked Stream.
type physicalCounts struct {
	parallelBreakers, streamAggs int
}

// physicalize rewrites the optimized logical plan into its physical form in
// one bottom-up walk that carries each node's order property. An aggregate
// whose single group key is a column of its input's property is marked
// Stream at any parallelism; with parallelism > 1 the pipeline breakers that
// qualify are wrapped in their parallel nodes, so sequential engines never
// see those. The two never meet: a row-ID pipeline is stateful and
// pipelineStages rejects it.
func physicalize(n Node, par, mergeParts int, hashOnly bool) (Node, physicalCounts) {
	if mergeParts <= 0 {
		mergeParts = par
	}
	p := &physicalPass{par: par, mergeParts: mergeParts, hashOnly: hashOnly}
	n, _ = p.rewrite(n)
	return n, p.physicalCounts
}

// rewrite physicalizes n's subtree and derives n's order property:
//
//	Project    column i is ordered when Exprs[i] is SEQ8()/SEQ4() (+ integer
//	           literal) or a reference to an ordered input column
//	Filter, Limit   keep the input's property (a subsequence stays sorted)
//	Flatten    keeps it for the input columns (a row's copies are adjacent);
//	           VALUE and INDEX are not ordered
//	Aggregate  streamed on key K: K is strictly increasing, and ANY_VALUE /
//	           MIN / MAX of an ordered column is non-decreasing, because the
//	           groups are consecutive runs of the input
//	Scan, Sort, Join, Union, hash and parallel aggregates   empty
func (p *physicalPass) rewrite(n Node) (Node, ordering) {
	var in ordering
	switch x := n.(type) {
	case *FilterNode:
		x.Input, in = p.rewrite(x.Input)
		return x, in
	case *LimitNode:
		x.Input, in = p.rewrite(x.Input)
		return x, in
	case *FlattenNode:
		x.Input, in = p.rewrite(x.Input)
		return x, in
	case *ProjectNode:
		x.Input, in = p.rewrite(x.Input)
		var out ordering
		for i, e := range x.Exprs {
			if isRowIDExpr(e) || in.has(colIndex(x.Input.Schema(), e)) {
				if out == nil {
					out = make(ordering, len(x.Exprs))
				}
				out[i] = true
			}
		}
		return x, out
	case *UnionNode:
		x.Left, _ = p.rewrite(x.Left)
		x.Right, _ = p.rewrite(x.Right)
	case *AggregateNode:
		x.Input, in = p.rewrite(x.Input)
		if !p.hashOnly && len(x.GroupBy) == 1 && in.has(colIndex(x.Input.Schema(), x.GroupBy[0])) {
			x.Stream = true
			p.streamAggs++
			out := make(ordering, 1+len(x.Aggs))
			out[0] = true
			for i, spec := range x.Aggs {
				switch spec.Name {
				case "ANY_VALUE", "MIN", "MAX":
					out[1+i] = in.has(colIndex(x.Input.Schema(), spec.Arg))
				}
			}
			return x, out
		}
		if p.par > 1 && parallelAggEligible(x) {
			p.parallelBreakers++
			return &ParallelAggNode{AggregateNode: x, Pipelines: p.par, MergeParts: p.mergeParts}, nil
		}
	case *JoinNode:
		x.Left, _ = p.rewrite(x.Left)
		x.Right, _ = p.rewrite(x.Right)
		if p.par > 1 && len(x.RightKeys) > 0 && !anyExprStateful(x.RightKeys) {
			p.parallelBreakers++
			return &ParallelJoinNode{JoinNode: x, BuildWorkers: p.par}, nil
		}
	case *SortNode:
		x.Input, _ = p.rewrite(x.Input)
		if p.par > 1 {
			p.parallelBreakers++
			return &ParallelSortNode{SortNode: x, SortWorkers: p.par}, nil
		}
	}
	return n, nil
}

// colIndex resolves e against sc when it is a plain column reference; -1
// otherwise.
func colIndex(sc *Schema, e sqlast.Expr) int {
	cr, ok := e.(*sqlast.ColRef)
	if !ok {
		return -1
	}
	name := cr.Name
	if cr.Table != "" {
		name = cr.Table + "." + cr.Name
	}
	if i, ok := sc.Lookup(name); ok {
		return i
	}
	return -1
}

// isRowIDExpr reports whether e is SEQ8()/SEQ4(), optionally plus an integer
// literal on either side: a per-operator counter, so non-decreasing (in fact
// increasing) over the rows the operator emits, at any batch size.
func isRowIDExpr(e sqlast.Expr) bool {
	if b, ok := e.(*sqlast.Binary); ok && b.Op == "+" {
		if isIntLit(b.Right) {
			e = b.Left
		} else if isIntLit(b.Left) {
			e = b.Right
		}
	}
	fc, ok := e.(*sqlast.FuncCall)
	if !ok {
		return false
	}
	name := strings.ToUpper(fc.Name)
	return name == "SEQ8" || name == "SEQ4"
}

func isIntLit(e sqlast.Expr) bool {
	l, ok := e.(*sqlast.Lit)
	return ok && l.Value.Kind() == variant.KindInt
}

// parallelAggEligible reports whether the aggregate can run as a two-phase
// partitioned aggregation with byte-identical output: mergeable-exact
// accumulators, stateless grouping, and a pipelineable input over more than
// one storage partition.
func parallelAggEligible(x *AggregateNode) bool {
	if !aggsMergeable(x.Aggs) {
		return false
	}
	if anyExprStateful(x.GroupBy) {
		return false
	}
	scan, _, ok := pipelineStages(x.Input)
	return ok && len(scan.Table.Partitions()) > 1
}

// aggsMergeable reports whether every aggregate's partial states combine
// exactly when partials are folded in input (partition index) order.
// SUM and AVG are excluded — float addition is not associative, so merging
// per-partition partial sums changes low-order bits versus the sequential
// row-order fold. Unknown aggregates must keep their lazy add-time error.
func aggsMergeable(specs []AggSpec) bool {
	for _, s := range specs {
		switch s.Name {
		case "COUNT", "COUNT_IF", "MIN", "MAX", "ANY_VALUE",
			"BOOLAND_AGG", "BOOLOR_AGG", "ARRAY_AGG":
		default:
			return false
		}
		if exprStateful(s.Arg) {
			return false
		}
		for _, o := range s.OrderBy {
			if exprStateful(o.Expr) {
				return false
			}
		}
	}
	return true
}

// pipelineStages decomposes an aggregate input into the operator chain the
// phase-1 workers replay per storage partition: a straight
// Filter/Project/Flatten chain (stateless expressions only, so replaying a
// partition in isolation yields exactly the rows the sequential pipeline
// would derive from it) over a scan with a stateless pushed-down filter.
// Returns the scan, the intermediate stages in execution order (scan side
// first), and whether the subtree qualifies.
func pipelineStages(n Node) (*ScanNode, []Node, bool) {
	var stages []Node
	for {
		switch x := n.(type) {
		case *ScanNode:
			if exprStateful(x.Filter) {
				return nil, nil, false
			}
			// Reverse into execution order: the walk collected root-side first.
			for i, j := 0, len(stages)-1; i < j; i, j = i+1, j-1 {
				stages[i], stages[j] = stages[j], stages[i]
			}
			return x, stages, true
		case *FilterNode:
			if exprStateful(x.Cond) {
				return nil, nil, false
			}
			stages = append(stages, x)
			n = x.Input
		case *ProjectNode:
			if anyExprStateful(x.Exprs) {
				return nil, nil, false
			}
			stages = append(stages, x)
			n = x.Input
		case *FlattenNode:
			if exprStateful(x.Expr) {
				return nil, nil, false
			}
			stages = append(stages, x)
			n = x.Input
		default:
			return nil, nil, false
		}
	}
}

func anyExprStateful(exprs []sqlast.Expr) bool {
	for _, e := range exprs {
		if exprStateful(e) {
			return true
		}
	}
	return false
}
