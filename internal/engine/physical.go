package engine

import (
	"slices"
	"strings"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
)

// The physical pass. After the logical optimizer runs, physicalize walks
// the plan once, bottom-up, deriving each node's order property, and
// decides what can run faster without changing a single output byte. It is
// the engine's only plan analysis: every segment an operator replays is the
// one it found. It reads the plan alone — never storage, never the engine's
// parallelism — so a compiled plan is a function of the SQL text and the
// schema:
//
//   - AggregateNode.Stream when the single group key is a column of the
//     input's order property (the streaming aggregate, exec.go).
//
//   - ExchangeNode around every maximal segment — a scan plus a chain of
//     Filter / Project / Flatten / streamed Aggregate stages and hash-join
//     probes, holding at least one FLATTEN, streamed aggregate or probe.
//     Workers replay the segment over sub-partition morsels; the driver
//     releases morsels in order and renumbers row IDs exactly (parallel.go).
//     A segment that uses a row ID any other way stays sequential and the
//     node says why.
//
//   - JoinNode.Match for a join that may build its left input: the segment
//     of its right input, whose morsels the join's match pass fans out over
//     when bind chooses the left build.
//
//   - JoinNode.Why, the rule keeping an INNER / LEFT OUTER equi-join's probe
//     out of the segment below it: its keys or residual read a row ID of the
//     segment, or the segment carries one through it.
//
//   - AggregateNode.Why, the hash aggregate's verdict on the two-phase
//     partitioned aggregation: empty when every aggregate merges exactly (see
//     aggsMergeWhy), the group keys are stateless and the input is a segment
//     without row IDs; otherwise the rule that failed. An eligible aggregate
//     records that segment (Scan, Stages): its fanned-out workers and a
//     materialized view's refreshes replay it. Whether it fans out is decided
//     when it runs (aggFanOut), like the exchange's fan-out.
//
// Everything order-sensitive stays on the sequential operators: SUM and AVG
// fold floats in input order (addition is not associative), stateful (SEQ)
// arguments observe evaluation order, and unknown aggregates must keep
// their lazy error behavior. planck certifies the contracts in planck.go.

// ExchangeNode runs its Input — a segment: Scan plus Stages — on parallel
// workers, each replaying the segment over fixed sub-partition morsels, and
// releases the morsels' output strictly in morsel order. Every row-ID
// counter restarts per morsel; on release the driver adds each counter's
// running offset to the output columns descending from it, so every row ID
// comes out exactly as the sequential pipeline assigns it.
type ExchangeNode struct {
	Input  Node
	Scan   *ScanNode
	Stages []Node // execution order, scan side first
	// Counters locates each SEQ8()/SEQ4() of the segment: the Project stage
	// and select-list position evaluating it.
	Counters []counterRef
	// Renumber[i] is 1 + the index in Counters of the counter output column
	// i descends from; 0 leaves the column alone.
	Renumber []int
	// Why names the rule keeping the segment sequential; empty when it may
	// fan out.
	Why string
}

func (n *ExchangeNode) Schema() *Schema { return n.Input.Schema() }

// Probe stages: an INNER or LEFT OUTER equi-join whose left input is a
// segment joins it as one more stage, its probe. A probe's output is its
// input rows in order, each with its candidates in right-input order, so
// replaying the probe over contiguous morsels and releasing them in order
// concatenates exactly the sequential join's output; the driver builds the
// table before the exchange fans out and the workers only read it. Which
// side builds is decided at bind (chooseBuild) and either build probes the
// same way: a left build's table chains its matched right rows under each
// left key, so a worker looks its morsel's left rows up in it as a right
// build's probe does. A probe keeps no order property (a join's output is
// unordered), so the segment below must carry no row ID through it, and its
// keys and residual must read none: JoinNode.Why names the rule, and the
// segment ends below the join.

// counterRef is one row-ID counter: select-list position expr of segment
// stage stage (-1 when its projection belongs to no segment).
type counterRef struct{ stage, expr int }

// ordering is a node's order property: ordering[i], when non-nil, is the
// row-ID counter output column i descends from, so the column is provably
// non-decreasing in row order. Every such column is SEQ8()/SEQ4() optionally
// plus an integer literal, carried unchanged, so its values are non-NULL
// integers — what lets the streaming aggregate compare keys as int64 and the
// exchange renumber a column by adding an offset.
type ordering []*counterRef

func (o ordering) at(i int) *counterRef {
	if i >= 0 && i < len(o) {
		return o[i]
	}
	return nil
}

func (o ordering) has(i int) bool { return o.at(i) != nil }

// segment is the chain physicalize is extending bottom-up: a scan and the
// stages above it so far.
type segment struct {
	scan     *ScanNode
	stages   []Node
	counters []*counterRef
	work     bool   // holds a FLATTEN, a streamed aggregate or a probe
	probes   bool   // holds a join probe
	why      string // the first rule keeping it sequential
}

// sequential records why, unless an earlier stage already gave a reason.
func (s *segment) sequential(why string) {
	if s.why == "" {
		s.why = why
	}
}

// physicalPass carries the knob of one physicalize walk and counts what it
// decided.
type physicalPass struct {
	// hashOnly keeps every aggregate on the hash path (Engine.forceHashAgg,
	// the differential tests' oracle).
	hashOnly bool
	physicalCounts
}

// physicalCounts is what one physicalize walk decided: aggregates marked
// Stream, and exchanges that may fan out.
type physicalCounts struct {
	streamAggs, parallelPipelines int
}

// physicalize rewrites the optimized logical plan into its physical form in
// one bottom-up walk that carries each node's order property. The result is
// the same at every parallelism: an exchange runs its segment inline at
// parallelism 1, and an eligible hash aggregate decides its fan-out when it
// runs.
func physicalize(n Node, hashOnly bool) (Node, physicalCounts) {
	p := &physicalPass{hashOnly: hashOnly}
	n, out, seg := p.rewrite(n)
	return p.seal(n, out, seg), p.physicalCounts
}

// rewrite physicalizes n's subtree, derives n's order property, and returns
// the segment n ends, if any:
//
//	Project    column i is ordered when Exprs[i] is SEQ8()/SEQ4() (+ integer
//	           literal: a new counter) or a reference to an ordered input column
//	Filter, Limit   keep the input's property (a subsequence stays sorted)
//	Flatten    keeps it for the input columns (a row's copies are adjacent);
//	           VALUE and INDEX are not ordered
//	Aggregate  streamed on key K: K is strictly increasing, and ANY_VALUE /
//	           MIN / MAX of an ordered column is non-decreasing, because the
//	           groups are consecutive runs of the input
//	Scan, Sort, Join, Union, hash aggregates   empty
//
// Within a segment an ordered column may only be carried that way; any other
// use — in a predicate, a computed column, a FLATTEN input, another
// aggregate — would observe a morsel-local value, so it keeps the segment
// sequential.
func (p *physicalPass) rewrite(n Node) (Node, ordering, *segment) {
	var in ordering
	var seg *segment
	switch x := n.(type) {
	case *ScanNode:
		seg = &segment{scan: x}
		if ExprStateful(x.Filter) {
			seg.sequential("stateful scan filter")
		}
		return x, nil, seg
	case *FilterNode:
		x.Input, in, seg = p.rewrite(x.Input)
		if seg != nil {
			if usesRowID(x.Cond, x.Input.Schema(), in) {
				seg.sequential("row id in predicate")
			}
			seg.stages = append(seg.stages, x)
		}
		return x, in, seg
	case *FlattenNode:
		x.Input, in, seg = p.rewrite(x.Input)
		if seg != nil {
			if usesRowID(x.Expr, x.Input.Schema(), in) || x.From != nil && usesRowID(x.From.Expr, x.Input.Schema(), in) {
				seg.sequential("row id in FLATTEN input")
			}
			seg.stages, seg.work = append(seg.stages, x), true
		}
		return x, in, seg
	case *ProjectNode:
		x.Input, in, seg = p.rewrite(x.Input)
		sc := x.Input.Schema()
		var out ordering
		for i, e := range x.Exprs {
			src := in.at(colIndex(sc, e))
			switch {
			case isRowIDExpr(e):
				src = &counterRef{stage: -1, expr: i}
				if seg != nil {
					src.stage = len(seg.stages)
					seg.counters = append(seg.counters, src)
				}
			case src == nil && seg != nil && usesRowID(e, sc, in):
				seg.sequential("row id in expression")
			}
			if src != nil {
				if out == nil {
					out = make(ordering, len(x.Exprs))
				}
				out[i] = src
			}
		}
		if seg != nil {
			seg.stages = append(seg.stages, x)
		}
		return x, out, seg
	case *LimitNode:
		x.Input, in, seg = p.rewrite(x.Input)
		x.Input = p.seal(x.Input, in, seg)
		return x, in, nil
	case *UnionNode:
		x.Left = p.sealed(x.Left)
		x.Right = p.sealed(x.Right)
	case *AggregateNode:
		x.Input, in, seg = p.rewrite(x.Input)
		sc := x.Input.Schema()
		if !p.hashOnly && len(x.GroupBy) == 1 && in.has(colIndex(sc, x.GroupBy[0])) {
			x.Stream = true
			p.streamAggs++
			out := make(ordering, 1+len(x.Aggs))
			out[0] = in.at(colIndex(sc, x.GroupBy[0]))
			for i, spec := range x.Aggs {
				switch spec.Name {
				case "ANY_VALUE", "MIN", "MAX":
					if out[1+i] = in.at(colIndex(sc, spec.Arg)); out[1+i] != nil {
						continue
					}
				}
				if seg != nil && aggUsesRowID(spec, sc, in) {
					seg.sequential("row id in aggregate")
				}
			}
			if seg != nil {
				seg.stages, seg.work = append(seg.stages, x), true
			}
			return x, out, seg
		}
		if x.Why = parallelAggWhy(x, seg); x.Why == "" {
			x.Scan, x.Stages = seg.scan, seg.stages
		}
		x.Input = p.seal(x.Input, in, seg)
	case *JoinNode:
		x.Left, in, seg = p.rewrite(x.Left)
		if seg != nil && isHashJoin(x) {
			x.Why = probeWhy(x, seg, in)
		}
		if probe := seg != nil && isHashJoin(x) && x.Why == ""; !probe {
			x.Left, seg = p.seal(x.Left, in, seg), nil
		}
		x.Right, x.Match = p.rewriteBuild(x)
		if seg != nil {
			seg.stages, seg.work, seg.probes = append(seg.stages, x), true, true
			return x, nil, seg
		}
	case *SortNode:
		x.Input = p.sealed(x.Input)
	}
	return n, nil, nil
}

// rewriteBuild physicalizes a join's right input and seals it. When the
// join may build left and its right input is a plain scan pipeline, it also
// returns that segment as the exchange the match pass fans out over
// (JoinNode.Match): the segment then ends in the match, which reads the right
// keys, so a key carrying a row ID keeps it sequential.
func (p *physicalPass) rewriteBuild(x *JoinNode) (Node, *ExchangeNode) {
	n, out, seg := p.rewrite(x.Right)
	var match *ExchangeNode
	if seg != nil && !seg.work && leftBuildable(x) {
		for _, k := range x.RightKeys {
			if usesRowID(k, n.Schema(), out) {
				seg.sequential("row id in join key")
			}
		}
		match = p.exchange(n, out, seg)
	}
	return p.seal(n, out, seg), match
}

// isHashJoin reports whether x is an INNER or LEFT OUTER equi-join: the
// joins whose probe may be a segment stage.
func isHashJoin(x *JoinNode) bool {
	return len(x.LeftKeys) > 0 && (x.Kind == "INNER" || x.Kind == "LEFT OUTER")
}

// probeWhy is the rule keeping a hash join's probe out of the segment below
// it, or "" when the probe may join it: neither its keys nor its residual
// may read a row ID, and the segment may carry none through the join, whose
// output has no order property to renumber it by.
func probeWhy(x *JoinNode, seg *segment, in ordering) string {
	for _, k := range x.LeftKeys {
		if usesRowID(k, x.Left.Schema(), in) {
			return "row id in join key"
		}
	}
	// The left columns come first in the joined schema, so in indexes them.
	if x.Residual != nil && usesRowID(x.Residual, x.Schema(), in) {
		return "row id in join residual"
	}
	if seg.why != "" || len(seg.counters) > 0 {
		return "row id in join input"
	}
	return ""
}

// sealed physicalizes a subtree whose consumer ends any segment in it.
func (p *physicalPass) sealed(n Node) Node {
	return p.seal(p.rewrite(n))
}

// seal wraps a finished segment in its exchange. A segment without a
// FLATTEN, streamed aggregate or probe stays as it is: a plain scan
// pipeline's parallelism is the scan's own (prepareScan).
func (p *physicalPass) seal(n Node, out ordering, seg *segment) Node {
	if seg == nil || !seg.work {
		return n
	}
	return p.exchange(n, out, seg)
}

// exchange wraps the segment ending in n in its exchange.
func (p *physicalPass) exchange(n Node, out ordering, seg *segment) *ExchangeNode {
	x := &ExchangeNode{Input: n, Scan: seg.scan, Stages: seg.stages, Why: seg.why}
	for _, c := range seg.counters {
		x.Counters = append(x.Counters, *c)
	}
	x.Renumber = make([]int, len(n.Schema().Names))
	for i := range x.Renumber {
		if src := out.at(i); src != nil {
			x.Renumber[i] = 1 + slices.Index(seg.counters, src)
		}
	}
	if x.Why == "" {
		p.parallelPipelines++
	}
	return x
}

// usesRowID reports whether e calls a counter or reads a column of sc that
// the order property traces to one.
func usesRowID(e sqlast.Expr, sc *Schema, in ordering) bool {
	return ExprStateful(e) || anyNode(e, func(x sqlast.Expr) bool { return in.has(colIndex(sc, x)) })
}

// aggUsesRowID is usesRowID over an aggregate's argument and order keys.
func aggUsesRowID(spec AggSpec, sc *Schema, in ordering) bool {
	if usesRowID(spec.Arg, sc, in) {
		return true
	}
	for _, o := range spec.OrderBy {
		if usesRowID(o.Expr, sc, in) {
			return true
		}
	}
	return false
}

// colIndex resolves e against sc when it is a plain column reference; -1
// otherwise.
func colIndex(sc *Schema, e sqlast.Expr) int {
	cr, ok := e.(*sqlast.ColRef)
	if !ok {
		return -1
	}
	if i, ok := sc.Lookup(cr.QualifiedName()); ok {
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
	return isRowCounter(strings.ToUpper(fc.Name))
}

func isIntLit(e sqlast.Expr) bool {
	l, ok := e.(*sqlast.Lit)
	return ok && l.Value.Kind() == variant.KindInt
}

// parallelAggWhy is a hash aggregate's plan-time verdict on the two-phase
// partitioned aggregation, which must reproduce the sequential output byte
// for byte: empty when every accumulator merges exactly, the grouping is
// stateless, and the input is a segment without row IDs (replaying a
// partition in isolation would restart the counter); otherwise the first
// rule that fails.
func parallelAggWhy(x *AggregateNode, seg *segment) string {
	switch why := aggsMergeWhy(x.Aggs); {
	case why != "":
		return why
	case slices.ContainsFunc(x.GroupBy, ExprStateful):
		return "row id in group key"
	case seg == nil || seg.probes:
		return "input not a scan pipeline"
	case seg.why != "" || len(seg.counters) > 0:
		return "row id in input"
	}
	return ""
}

// aggsMergeWhy says why the aggregates' partial states would not combine
// exactly when partials are folded in input (partition index) order, or ""
// when they do. SUM and AVG are excluded — float addition is not
// associative, so merging per-partition partial sums changes low-order bits
// versus the sequential row-order fold. Unknown aggregates must keep their
// lazy add-time error.
func aggsMergeWhy(specs []AggSpec) string {
	for _, s := range specs {
		switch s.Name {
		case "COUNT", "COUNT_IF", "MIN", "MAX", "ANY_VALUE",
			"BOOLAND_AGG", "BOOLOR_AGG", "ARRAY_AGG":
		default:
			return "not mergeable: " + s.Name
		}
		if ExprStateful(s.Arg) {
			return "row id in aggregate"
		}
		for _, o := range s.OrderBy {
			if ExprStateful(o.Expr) {
				return "row id in aggregate"
			}
		}
	}
	return ""
}
