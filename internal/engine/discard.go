package engine

import (
	"slices"
	"strings"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
)

// Rules that stop computing what the query discards (DESIGN.md §6 "Discard
// rules"). Both run after projection pruning, change no SQL text and keep
// every output byte: the flatten-bound rule skips FLATTEN rows a filter
// conjunct would reject and leaves the conjunct in place; the top-1 rule
// folds an ordered ARRAY_AGG read only at index 0 into one accumulator
// that keeps the element the sort would put first. Engine.noDiscardRules
// turns both off — their oracle.

// flattenBounds gives every FLATTEN directly under a filter the lower bound
// of the first conjunct that bounds its INDEX, or the VALUE of its
// ARRAY_RANGE, from below by a column of its input or a literal. It returns
// the number of FLATTENs bounded.
func flattenBounds(n Node) int {
	fired := 0
	forEachNode(n, func(x Node) {
		f, ok := x.(*FilterNode)
		if !ok {
			return
		}
		fl, ok := f.Input.(*FlattenNode)
		if !ok || fl.From != nil {
			return
		}
		for _, c := range splitConjuncts(f.Cond) {
			if fl.From = flattenBoundOf(fl, c); fl.From != nil {
				fired++
				return
			}
		}
	})
	return fired
}

// flattenBoundOf recognizes `a < b`, `a <= b`, `b > a` or `b >= a` where b is
// f's INDEX, or its VALUE over ARRAY_RANGE, and a is a literal or a column
// of f's input — an expression the FLATTEN can read per input row without
// raising an error the filter would not.
func flattenBoundOf(f *FlattenNode, c sqlast.Expr) *FlattenBound {
	b, ok := c.(*sqlast.Binary)
	if !ok {
		return nil
	}
	lo, col, strict := b.Left, b.Right, false
	switch b.Op {
	case "<":
		strict = true
	case "<=":
	case ">":
		lo, col, strict = b.Right, b.Left, true
	case ">=":
		lo, col = b.Right, b.Left
	default:
		return nil
	}
	ref, ok := col.(*sqlast.ColRef)
	if !ok {
		return nil
	}
	bound := &FlattenBound{Expr: lo, Strict: strict}
	switch ref.QualifiedName() {
	case f.Alias + ".INDEX":
	case f.Alias + ".VALUE":
		if _, ok := arrayRangeCall(f.Expr); !ok {
			return nil
		}
		bound.Value = true
	default:
		return nil
	}
	switch lo.(type) {
	case *sqlast.Lit:
	case *sqlast.ColRef:
		if !exprResolves(f.Input.Schema(), lo) {
			return nil
		}
	default:
		return nil
	}
	return bound
}

// arrayRangeCall returns e as an ARRAY_RANGE(lo, hi) call.
func arrayRangeCall(e sqlast.Expr) (*sqlast.FuncCall, bool) {
	call, ok := e.(*sqlast.FuncCall)
	return call, ok && strings.EqualFold(call.Name, "ARRAY_RANGE") && len(call.Args) == 2
}

// flattenStart is the first position of a row's expansion under a bound
// whose expression evaluated to a: the first position whose INDEX (base 0)
// or VALUE (base = the array's first integer) the bound admits, at least 0
// and capped at math.MaxInt. A non-integer a gives 0: no skip.
func flattenStart(a variant.Value, strict bool, base int64) int {
	if a.Kind() != variant.KindInt {
		return 0
	}
	first := a.AsInt()
	if strict {
		if first == 1<<63-1 {
			return int(^uint(0) >> 1)
		}
		first++
	}
	if first <= base {
		return 0
	}
	// first - base overflows int64 when the two are far apart; as unsigned
	// integers the difference is exact.
	return int(min(uint64(first)-uint64(base), uint64(^uint(0)>>1)))
}

// top1Aggs marks every ordered, non-DISTINCT ARRAY_AGG whose array is only
// read as element 0 (AggSpec.Top1) and rewrites those reads into the
// aggregate's output itself. It returns the number of aggregates marked, and
// whether one of them dropped fields of its argument — which leaves columns
// for pruning to drop.
func top1Aggs(root Node) (fired int, narrowed bool) {
	path := make([]Node, 0, 32) // the ancestors of the node being visited, root first
	var visit func(Node)
	visit = func(n Node) {
		if a, ok := n.(*AggregateNode); ok {
			for i := range a.Aggs {
				arg := a.Aggs[i].Arg
				if top1Agg(a, i, path) {
					fired++
					narrowed = narrowed || a.Aggs[i].Arg != arg
				}
			}
		}
		path = append(path, n)
		inputSlots(n, func(in *Node) { visit(*in) })
		path = path[:len(path)-1]
	}
	visit(root)
	return fired, narrowed
}

// top1Agg traces aggregate i of a up through its ancestors. The array may
// be carried by name — through plain column projections, COALESCE(c,
// ARRAY_CONSTRUCT()) (whose element 0 is c's), filters, FLATTENs, sorts,
// limits and joins — and read only as GET(c, 0). When every read is, the
// aggregate becomes top-1 and each GET(c, 0) becomes c. When its argument is
// an OBJECT_CONSTRUCT with literal keys and element 0 is in turn only read
// through GET(·, 'field'), it keeps just the fields read.
func top1Agg(a *AggregateNode, i int, path []Node) bool {
	spec := &a.Aggs[i]
	if spec.Name != "ARRAY_AGG" || spec.Distinct || spec.Top1 || len(spec.OrderBy) == 0 {
		return false
	}
	start := func() *top1Trace {
		return &top1Trace{arrays: names{a.AggNames[i]}}
	}
	// The trace ends where no output carries a traced name: nothing above
	// can read one.
	t := start()
	child, p := Node(a), len(path)-1
	for ; p >= 0 && !t.failed && t.live(); p-- {
		t.step(path[p], child)
		child = path[p]
	}
	if t.failed || len(t.arrays) > 0 {
		return false
	}
	if len(t.values) > 0 {
		t.whole = true // the root returns element 0 itself
	}
	// The trace passed: replay it, rewriting each node's reads under the
	// names that carried the array into it.
	r := start()
	child = a
	for q := len(path) - 1; q > p; q-- {
		scope := r.arrays
		r.step(path[q], child)
		stripTop1(path[q], scope)
		child = path[q]
	}
	spec.Top1 = true
	if !t.whole {
		spec.Arg = keepFields(spec.Arg, t.fields)
	}
	return true
}

// top1Trace is the state of one trace: the names that hold the array and
// those that hold its element 0 in the input of the node being stepped
// through, and the fields of element 0 read so far, unless it is read whole.
type top1Trace struct {
	arrays, values names
	fields         names
	whole, failed  bool
}

// names is a set of column names — a trace carries one or two.
type names []string

func (ns names) has(n string) bool { return slices.Contains(ns, n) }

// live reports whether a traced name is still visible.
func (t *top1Trace) live() bool { return len(t.arrays)+len(t.values) > 0 }

// step checks parent's reads of the traced names in child's output and
// moves the trace to parent's output.
func (t *top1Trace) step(parent, child Node) {
	switch x := parent.(type) {
	case *ProjectNode:
		var arrays, values names
		for j, def := range x.Exprs {
			name := x.Names[j]
			shadow := func(n string) bool { return n == name } // a later definition shadows an earlier one
			arrays, values = slices.DeleteFunc(arrays, shadow), slices.DeleteFunc(values, shadow)
			if cr, ok := def.(*sqlast.ColRef); ok && t.values.has(cr.QualifiedName()) {
				values = append(values, name)
				continue
			}
			switch {
			case t.array(def) != nil:
				arrays = append(arrays, name)
			case t.elem0(def) != nil:
				values = append(values, name)
			default:
				t.reads(def)
			}
		}
		t.arrays, t.values = arrays, values
		return
	case *FilterNode, *LimitNode, *SortNode:
	case *FlattenNode:
		t.shadowed(x.Alias+".VALUE", x.Alias+".INDEX")
	case *JoinNode:
		other := x.Left
		if other == child {
			other = x.Right
		}
		t.shadowed(other.Schema().Names...)
	case *AggregateNode:
	default:
		t.failed = true
	}
	exprSlots(parent, func(e *sqlast.Expr) { t.reads(*e) })
	if _, ok := parent.(*AggregateNode); ok {
		t.arrays, t.values = nil, nil // its outputs are new columns
	}
}

// shadowed fails the trace when a traced name is also one of names, which
// would then resolve to another column.
func (t *top1Trace) shadowed(names ...string) {
	for _, n := range names {
		if t.arrays.has(n) || t.values.has(n) {
			t.failed = true
		}
	}
}

// reads checks every read of a traced name in e: the array only as element
// 0, and element 0 through GET(·, 'field') or else whole.
func (t *top1Trace) reads(e sqlast.Expr) {
	sqlast.Walk(e, func(x sqlast.Expr) bool {
		if t.failed {
			return false
		}
		if get, ok := x.(*sqlast.FuncCall); ok && strings.EqualFold(get.Name, "GET") && len(get.Args) == 2 {
			key, isLit := get.Args[1].(*sqlast.Lit)
			base, isRef := get.Args[0].(*sqlast.ColRef)
			if isLit && key.Value.Kind() == variant.KindString && (t.elem0(get.Args[0]) != nil || isRef && t.values.has(base.QualifiedName())) {
				t.fields = append(t.fields, key.Value.AsString())
				return false
			}
		}
		if t.elem0(x) != nil {
			t.whole = true
			return false
		}
		if cr, ok := x.(*sqlast.ColRef); ok {
			t.failed = t.failed || t.arrays.has(cr.QualifiedName())
			t.whole = t.whole || t.values.has(cr.QualifiedName())
		}
		return true
	})
}

// array returns the traced column e carries the array of: a reference to
// it, or COALESCE(ref, ARRAY_CONSTRUCT()) — whose second argument simplify
// has folded to the empty array literal.
func (t *top1Trace) array(e sqlast.Expr) *sqlast.ColRef {
	if call, ok := e.(*sqlast.FuncCall); ok && strings.EqualFold(call.Name, "COALESCE") && len(call.Args) == 2 {
		if empty, ok := call.Args[1].(*sqlast.Lit); ok && empty.Value.Kind() == variant.KindArray && empty.Value.Len() == 0 {
			e = call.Args[0]
		}
	}
	if cr, ok := e.(*sqlast.ColRef); ok && t.arrays.has(cr.QualifiedName()) {
		return cr
	}
	return nil
}

// elem0 returns the traced column whose element 0 e reads: GET(c, 0) where
// c carries the array. GET(COALESCE(c, ARRAY_CONSTRUCT()), 0) equals
// GET(c, 0) for every c, NULL included.
func (t *top1Trace) elem0(e sqlast.Expr) *sqlast.ColRef {
	call, ok := e.(*sqlast.FuncCall)
	if !ok || !strings.EqualFold(call.Name, "GET") || len(call.Args) != 2 {
		return nil
	}
	if idx, ok := call.Args[1].(*sqlast.Lit); !ok || idx.Value.Kind() != variant.KindInt || idx.Value.AsInt() != 0 {
		return nil
	}
	return t.array(call.Args[0])
}

// stripTop1 rewrites n's reads of the arrays named in scope, once they hold
// element 0 itself: GET(c, 0) becomes c, and a projection carrying the array
// through COALESCE carries c (no other node reads the array whole, or the
// trace would have failed).
func stripTop1(n Node, scope names) {
	t := &top1Trace{arrays: scope}
	var strip func(sqlast.Expr) sqlast.Expr
	strip = func(e sqlast.Expr) sqlast.Expr {
		if cr := t.elem0(e); cr != nil {
			return cr
		}
		return sqlast.MapChildren(e, strip)
	}
	exprSlots(n, func(e *sqlast.Expr) {
		if cr := t.array(*e); cr != nil {
			*e = cr
		} else {
			*e = strip(*e)
		}
	})
}

// keepFields narrows OBJECT_CONSTRUCT('k1', v1, ...) with literal string
// keys to the pairs whose key is in fields, in order; any other argument, or
// one that keeps every pair, is returned as is. The narrowed object is never NULL, as the full one is
// not, so the accumulator skips the same rows, and GET of a kept field reads
// the same value.
func keepFields(arg sqlast.Expr, fields names) sqlast.Expr {
	keys, ok := objectKeys(arg)
	if !ok {
		return arg
	}
	call := arg.(*sqlast.FuncCall)
	var kept []sqlast.Expr
	for i, k := range keys {
		if fields.has(k) {
			kept = append(kept, call.Args[2*i], call.Args[2*i+1])
		}
	}
	if len(kept) == len(call.Args) {
		return arg
	}
	return &sqlast.FuncCall{Name: call.Name, Args: kept}
}

// objectKeys returns the keys of OBJECT_CONSTRUCT('k1', v1, ...) when every
// key is a literal string.
func objectKeys(e sqlast.Expr) ([]string, bool) {
	call, ok := e.(*sqlast.FuncCall)
	if !ok || !strings.EqualFold(call.Name, "OBJECT_CONSTRUCT") || len(call.Args)%2 != 0 {
		return nil, false
	}
	keys := make([]string, 0, len(call.Args)/2)
	for i := 0; i < len(call.Args); i += 2 {
		key, ok := call.Args[i].(*sqlast.Lit)
		if !ok || key.Value.Kind() != variant.KindString {
			return nil, false
		}
		keys = append(keys, key.Value.AsString())
	}
	return keys, true
}
