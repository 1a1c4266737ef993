package engine

import (
	"fmt"
	"slices"
	"strings"

	"jsonpark/internal/obsv"
	"jsonpark/internal/sqlast"
	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// optimize runs the engine's rewrite pipeline, each rule once, in this
// order: predicate pushdown with equi-join detection (it substitutes
// projection definitions into predicates and splits join conditions into
// keys and residual), project merging, expression simplification over every
// expression the plan now holds (constant folding and the struct-field
// pushdown GET(OBJECT_CONSTRUCT(...)) folding that the first two expose),
// projection pruning down to the scans, then, with discard set, the two
// discard rules (discard.go) — top-1 aggregates, pruning again, FLATTEN
// lower bounds — and last zone-map prune-predicate derivation. Under a
// non-nil sp each rule gets a child span annotated with what it achieved
// (projects collapsed, columns pruned, aggregates and FLATTENs rewritten,
// zone-map predicates derived), so a trace shows which rules fired on a
// given query.
func optimize(n Node, sp *obsv.Span, discard bool) Node {
	rule := func(name string, fn func(Node) Node, attr func(s *obsv.Span)) {
		s := sp.Child("rule." + name)
		n = fn(n)
		if s != nil && attr != nil {
			attr(s)
		}
		s.End()
	}
	rule("pushdown", pushDown, nil)
	before := 0
	if sp != nil {
		before = countProjects(n)
	}
	rule("merge-projects", mergeProjects, func(s *obsv.Span) {
		s.SetAttr("projects", fmt.Sprintf("%d->%d", before, countProjects(n)))
	})
	rule("simplify", simplifyNode, nil)
	rule("prune-columns", func(x Node) Node { return pruneNode(x, nil) }, func(s *obsv.Span) {
		s.SetAttr("scan-columns", scanTotal(n, func(s *ScanNode) int { return len(s.Columns) }))
	})
	if discard {
		fired := 0
		firedAttr := func(s *obsv.Span) { s.SetAttr("fired", fired) }
		rule("top1", func(x Node) Node {
			var narrowed bool
			if fired, narrowed = top1Aggs(x); narrowed {
				x = pruneNode(x, nil) // what only the dropped fields read
			}
			return x
		}, firedAttr)
		rule("flatten-bound", func(x Node) Node { fired = flattenBounds(x); return x }, firedAttr)
	}
	rule("derive-prunes", func(x Node) Node { deriveScanPrunes(x); return x }, func(s *obsv.Span) {
		s.SetAttr("prune-predicates", scanTotal(n, func(s *ScanNode) int { return len(s.Prunes) }))
	})
	return n
}

func countProjects(n Node) int {
	total := 0
	forEachNode(n, func(x Node) {
		if _, ok := x.(*ProjectNode); ok {
			total++
		}
	})
	return total
}

// scanTotal sums count over the plan's scans.
func scanTotal(n Node, count func(*ScanNode) int) int {
	total := 0
	forEachNode(n, func(x Node) {
		if s, ok := x.(*ScanNode); ok {
			total += count(s)
		}
	})
	return total
}

// mergeProjects collapses Project-over-Project chains — the data-frame
// layer emits one SELECT level per transformation, and executing each level
// copies every row. A definition is inlined into the outer project when it
// is free (a column reference or literal), or used at most once (including
// volatile SEQ8 definitions, whose single use keeps the value sequence
// intact).
func mergeProjects(n Node) Node {
	inputSlots(n, func(in *Node) { *in = mergeProjects(*in) })
	x, ok := n.(*ProjectNode)
	if !ok {
		return n
	}
	for {
		inner, ok := x.Input.(*ProjectNode)
		if !ok {
			return n
		}
		counts := make(map[string]int)
		for _, e := range x.Exprs {
			countRefs(e, counts)
		}
		for i, name := range inner.Names {
			if counts[name] > 1 && !isFreeExpr(inner.Exprs[i]) {
				return n
			}
		}
		defs := projectDefs(inner)
		inline := func(cr *sqlast.ColRef) sqlast.Expr {
			if def, ok := defs[cr.QualifiedName()]; ok {
				return def
			}
			return cr
		}
		for i := range x.Exprs {
			x.Exprs[i], _ = inlineRefs(x.Exprs[i], inline)
		}
		x.Input = inner.Input
	}
}

func countRefs(e sqlast.Expr, into map[string]int) {
	sqlast.Walk(e, func(n sqlast.Expr) bool {
		if cr, ok := n.(*sqlast.ColRef); ok {
			into[cr.QualifiedName()]++
		}
		return true
	})
}

func isFreeExpr(e sqlast.Expr) bool {
	switch e.(type) {
	case *sqlast.ColRef, *sqlast.Lit:
		return true
	}
	return false
}

// projectDefs maps each output name of p to its defining expression.
func projectDefs(p *ProjectNode) map[string]sqlast.Expr {
	defs := make(map[string]sqlast.Expr, len(p.Names))
	for i, name := range p.Names {
		defs[name] = p.Exprs[i]
	}
	return defs
}

// inlineRefs rebuilds e with each column reference cr replaced by def(cr):
// the planner inlines select-list aliases, mergeProjects and filter pushdown
// a project's definitions. def returns cr itself to keep the reference, or
// nil to refuse it, which makes inlineRefs report false. A definition that
// is a reference to a column of the same name keeps cr, so e is rebuilt only
// where its text changes: pushdown sinks a conjunct through every layer of
// "x" AS "x" pass-throughs before projects merge.
func inlineRefs(e sqlast.Expr, def func(*sqlast.ColRef) sqlast.Expr) (sqlast.Expr, bool) {
	ok := true
	var visit func(sqlast.Expr) sqlast.Expr
	visit = func(e sqlast.Expr) sqlast.Expr {
		cr, isRef := e.(*sqlast.ColRef)
		if !isRef {
			return sqlast.MapChildren(e, visit)
		}
		if d := def(cr); d != nil {
			if dr, same := d.(*sqlast.ColRef); same && *dr == *cr {
				return cr
			}
			return d
		}
		ok = false
		return e
	}
	out := visit(e)
	return out, ok
}

// --- expression simplification -------------------------------------------

// simplifyNode simplifies every expression of every node in the plan.
func simplifyNode(n Node) Node {
	forEachNode(n, func(x Node) {
		exprSlots(x, func(e *sqlast.Expr) { *e = simplifyExpr(*e) })
	})
	return n
}

// simplifyExpr folds constants and performs the struct-field pushdown
// rewrite GET(OBJECT_CONSTRUCT('a', x, ...), 'a') → x, which restores
// column-level prunability after the translator wraps table columns into
// per-variable objects.
func simplifyExpr(e sqlast.Expr) sqlast.Expr {
	if e == nil {
		return nil
	}
	e = sqlast.MapChildren(e, simplifyExpr)
	switch x := e.(type) {
	case *sqlast.FuncCall:
		if folded := foldGet(x); folded != nil {
			return folded
		}
		if lit := foldLiteralCall(x); lit != nil {
			return lit
		}
	case *sqlast.Binary:
		l, r := x.Left, x.Right
		if ll, lok := l.(*sqlast.Lit); lok {
			if _, rok := r.(*sqlast.Lit); rok {
				if v, ok := evalConst(x); ok {
					return &sqlast.Lit{Value: v}
				}
			}
			if folded := shortCircuit(x.Op, ll, r); folded != nil {
				return folded
			}
		}
		if rl, rok := r.(*sqlast.Lit); rok {
			if folded := shortCircuit(x.Op, rl, l); folded != nil {
				return folded
			}
		}
	case *sqlast.Unary:
		if _, ok := x.Operand.(*sqlast.Lit); ok {
			if v, folded := evalConst(x); folded {
				return &sqlast.Lit{Value: v}
			}
		}
	case *sqlast.IsNull:
		if lit, ok := x.Operand.(*sqlast.Lit); ok {
			return &sqlast.Lit{Value: variant.Bool(lit.Value.IsNull() != x.Negate)}
		}
	case *sqlast.Cast:
		if _, ok := x.Operand.(*sqlast.Lit); ok {
			if v, folded := evalConst(x); folded {
				return &sqlast.Lit{Value: v}
			}
		}
	}
	return e
}

// shortCircuit folds AND or OR (op) with the boolean literal lit on one side
// and other on the other: a literal that decides the result (FALSE for AND,
// TRUE for OR) gives it, and one that does not gives other, but only when
// other is itself boolean-valued — the three-valued operator returns TRUE,
// FALSE or NULL, never the value of a non-boolean operand. Anything else
// stays (nil).
func shortCircuit(op string, lit *sqlast.Lit, other sqlast.Expr) sqlast.Expr {
	if (op != "AND" && op != "OR") || lit.Value.Kind() != variant.KindBool {
		return nil
	}
	if decides := op == "OR"; lit.Value.AsBool() == decides {
		return &sqlast.Lit{Value: variant.Bool(decides)}
	}
	if boolValued(other) {
		return other
	}
	return nil
}

// boolValued reports whether e always evaluates to a boolean or NULL: a
// boolean or NULL literal, a comparison, AND, OR, NOT, IS [NOT] NULL, or an
// IFF or CASE whose every result is boolean-valued.
func boolValued(e sqlast.Expr) bool {
	switch x := e.(type) {
	case *sqlast.Lit:
		return x.Value.Kind() == variant.KindBool || x.Value.IsNull()
	case *sqlast.Binary:
		switch x.Op {
		case "=", "<>", "<", "<=", ">", ">=", "AND", "OR":
			return true
		}
	case *sqlast.Unary:
		return x.Op == "NOT"
	case *sqlast.IsNull:
		return true
	case *sqlast.FuncCall:
		return strings.EqualFold(x.Name, "IFF") && len(x.Args) == 3 && boolValued(x.Args[1]) && boolValued(x.Args[2])
	case *sqlast.CaseWhen:
		for _, w := range x.Whens {
			if !boolValued(w.Result) {
				return false
			}
		}
		return x.Else == nil || boolValued(x.Else)
	}
	return false
}

// foldGet rewrites GET over constructor calls: struct-field pushdown.
func foldGet(call *sqlast.FuncCall) sqlast.Expr {
	name := strings.ToUpper(call.Name)
	if name != "GET" || len(call.Args) != 2 {
		return nil
	}
	key, ok := call.Args[1].(*sqlast.Lit)
	if !ok {
		return nil
	}
	base, ok := call.Args[0].(*sqlast.FuncCall)
	if !ok {
		return nil
	}
	switch strings.ToUpper(base.Name) {
	case "OBJECT_CONSTRUCT":
		if key.Value.Kind() != variant.KindString || len(base.Args)%2 != 0 {
			return nil
		}
		for i := 0; i < len(base.Args); i += 2 {
			k, ok := base.Args[i].(*sqlast.Lit)
			if !ok || k.Value.Kind() != variant.KindString {
				return nil // non-literal key: cannot fold safely
			}
			if k.Value.AsString() == key.Value.AsString() {
				return base.Args[i+1]
			}
		}
		return &sqlast.Lit{Value: variant.Null}
	case "ARRAY_CONSTRUCT":
		if key.Value.Kind() != variant.KindInt {
			return nil
		}
		i := key.Value.AsInt()
		if i < 0 || i >= int64(len(base.Args)) {
			return &sqlast.Lit{Value: variant.Null}
		}
		return base.Args[i]
	}
	return nil
}

// foldLiteralCall evaluates a pure scalar call whose arguments are all
// literals. Volatile functions (SEQ8) are excluded.
func foldLiteralCall(call *sqlast.FuncCall) sqlast.Expr {
	name := strings.ToUpper(call.Name)
	if isRowCounter(name) || isAggregateName(name) {
		return nil
	}
	if _, ok := scalarFuncs[name]; !ok {
		return nil
	}
	for _, a := range call.Args {
		if _, ok := a.(*sqlast.Lit); !ok {
			return nil
		}
	}
	if v, ok := evalConst(call); ok {
		return &sqlast.Lit{Value: v}
	}
	return nil
}

// evalConst evaluates an expression with no column references through a DAG
// over a one-row batch; the batch's one column only gives it its length. An
// expression that errors stays unfolded, to fail at run time.
func evalConst(e sqlast.Expr) (variant.Value, bool) {
	d, err := compileVec(nil, nil, NewSchema(nil), e)
	if err != nil {
		return variant.Null, false
	}
	vals, err := d.eval(&vector.Batch{Cols: [][]variant.Value{{variant.Null}}})
	if err != nil {
		return variant.Null, false
	}
	return vals[0][0], true
}

// --- predicate pushdown ---------------------------------------------------

func splitConjuncts(e sqlast.Expr) []sqlast.Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*sqlast.Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.Left), splitConjuncts(b.Right)...)
	}
	return []sqlast.Expr{e}
}

func andAll(conjuncts []sqlast.Expr) sqlast.Expr {
	var out sqlast.Expr
	for _, c := range conjuncts {
		if out == nil {
			out = c
		} else {
			out = &sqlast.Binary{Op: "AND", Left: out, Right: c}
		}
	}
	return out
}

// pushDown recursively pushes filter conjuncts toward the scans and converts
// qualifying joins into hash equi-joins.
func pushDown(n Node) Node {
	return pushFilter(n, nil)
}

// pushFilter pushes the given conjuncts into n. Conjuncts that cannot sink
// remain in a FilterNode above the result.
func pushFilter(n Node, conjuncts []sqlast.Expr) Node {
	switch x := n.(type) {
	case *ScanNode:
		all := append(splitConjuncts(x.Filter), conjuncts...)
		x.Filter = andAll(all)
		return x
	case *FilterNode:
		return pushFilter(x.Input, append(conjuncts, splitConjuncts(x.Cond)...))
	case *ProjectNode:
		var below, above []sqlast.Expr
		if len(conjuncts) > 0 {
			// A conjunct moves below when it reads only the project's
			// outputs and none of them is stateful (SEQ8): inlined into the
			// filter, a row counter would count the filter's input rows.
			defs := projectDefs(x)
			inline := func(cr *sqlast.ColRef) sqlast.Expr {
				if def := defs[cr.QualifiedName()]; def != nil && !ExprStateful(def) {
					return def
				}
				return nil
			}
			for _, c := range conjuncts {
				if sub, ok := inlineRefs(c, inline); ok {
					below = append(below, sub)
				} else {
					above = append(above, c)
				}
			}
		}
		x.Input = pushFilter(x.Input, below)
		return wrapFilter(x, above)
	case *FlattenNode:
		inputSchema := x.Input.Schema()
		var below, above []sqlast.Expr
		for _, c := range conjuncts {
			if exprResolves(inputSchema, c) {
				below = append(below, c)
			} else {
				above = append(above, c)
			}
		}
		x.Input = pushFilter(x.Input, below)
		return wrapFilter(x, above)
	case *JoinNode:
		return pushFilterJoin(x, conjuncts)
	case *AggregateNode:
		x.Input = pushFilter(x.Input, nil)
		return wrapFilter(x, conjuncts)
	case *SortNode:
		x.Input = pushFilter(x.Input, conjuncts)
		return x
	case *LimitNode:
		x.Input = pushFilter(x.Input, nil)
		return wrapFilter(x, conjuncts)
	case *UnionNode:
		// Conjuncts push into both branches only when they resolve by name
		// on each side; otherwise they stay above.
		var pushable, above []sqlast.Expr
		for _, c := range conjuncts {
			if exprResolves(x.Left.Schema(), c) && exprResolves(x.Right.Schema(), c) {
				pushable = append(pushable, c)
			} else {
				above = append(above, c)
			}
		}
		x.Left = pushFilter(x.Left, pushable)
		x.Right = pushFilter(x.Right, pushable)
		return wrapFilter(x, above)
	}
	return wrapFilter(n, conjuncts)
}

func wrapFilter(n Node, conjuncts []sqlast.Expr) Node {
	if len(conjuncts) == 0 {
		return n
	}
	return &FilterNode{Input: n, Cond: andAll(conjuncts)}
}

func pushFilterJoin(j *JoinNode, conjuncts []sqlast.Expr) Node {
	leftSchema := j.Left.Schema()
	rightSchema := j.Right.Schema()

	var leftConj, rightConj, above []sqlast.Expr
	var residual []sqlast.Expr

	classify := func(cs []sqlast.Expr, allowSidePush bool) {
		for _, c := range cs {
			onLeft := exprResolves(leftSchema, c)
			onRight := exprResolves(rightSchema, c)
			switch {
			case onLeft && allowSidePush:
				leftConj = append(leftConj, c)
			case onRight && allowSidePush:
				rightConj = append(rightConj, c)
			default:
				if eq, l, r := equiKey(c, leftSchema, rightSchema); eq {
					j.LeftKeys = append(j.LeftKeys, l)
					j.RightKeys = append(j.RightKeys, r)
				} else {
					residual = append(residual, c)
				}
			}
		}
	}

	switch j.Kind {
	case "CROSS", "INNER":
		// For inner semantics, ON conjuncts and WHERE conjuncts are
		// interchangeable.
		classify(splitConjuncts(j.On), true)
		classify(conjuncts, true)
		j.On = nil
		if len(j.LeftKeys) > 0 {
			j.Kind = "INNER"
		}
		j.Residual = andAll(residual)
	case "LEFT OUTER":
		// ON conjuncts keep join semantics; WHERE conjuncts referencing only
		// the left side can push, the rest stay above.
		classify(splitConjuncts(j.On), false)
		j.On = nil
		j.Residual = andAll(residual)
		for _, c := range conjuncts {
			if exprResolves(leftSchema, c) {
				leftConj = append(leftConj, c)
			} else {
				above = append(above, c)
			}
		}
	default:
		above = append(above, conjuncts...)
	}

	j.Left = pushFilter(j.Left, leftConj)
	j.Right = pushFilter(j.Right, rightConj)
	return wrapFilter(j, above)
}

// equiKey recognizes `l = r` with one side resolving on the left schema and
// the other on the right, returning the per-side key expressions.
func equiKey(c sqlast.Expr, left, right *Schema) (ok bool, l, r sqlast.Expr) {
	b, isBin := c.(*sqlast.Binary)
	if !isBin || b.Op != "=" {
		return false, nil, nil
	}
	if exprResolves(left, b.Left) && exprResolves(right, b.Right) {
		return true, b.Left, b.Right
	}
	if exprResolves(left, b.Right) && exprResolves(right, b.Left) {
		return true, b.Right, b.Left
	}
	return false, nil, nil
}

// --- projection pruning ---------------------------------------------------

type nameSet map[string]bool

func refsOf(e sqlast.Expr, into nameSet) {
	sqlast.Walk(e, func(n sqlast.Expr) bool {
		if cr, ok := n.(*sqlast.ColRef); ok {
			into[cr.QualifiedName()] = true
		}
		return true
	})
}

// pruneNode trims unused columns. needed == nil means "keep every output"
// (used at the root and through union branches).
func pruneNode(n Node, needed nameSet) Node {
	switch x := n.(type) {
	case *ScanNode:
		if needed == nil {
			return x
		}
		req := inputNeeds(make(nameSet), x, needed)
		var cols []string
		for _, c := range x.Columns {
			if req[c] {
				cols = append(cols, c)
			}
		}
		if len(cols) == 0 && len(x.Columns) > 0 {
			cols = x.Columns[:1] // keep one column to preserve row count
		}
		x.Columns = cols
		x.schema = nil
		return x
	case *ProjectNode:
		if needed != nil {
			var exprs []sqlast.Expr
			var names []string
			for i, name := range x.Names {
				if needed[name] {
					exprs = append(exprs, x.Exprs[i])
					names = append(names, name)
				}
			}
			if len(exprs) == 0 {
				// Keep one cheap column to preserve cardinality.
				exprs = x.Exprs[:1]
				names = x.Names[:1]
			}
			x.Exprs = exprs
			x.Names = names
			x.schema = nil
		}
		x.Input = pruneNode(x.Input, addReads(make(nameSet), x))
		return x
	case *AggregateNode:
		// Drop aggregates whose output is never consumed (e.g. ANY_VALUE
		// carry-alongs from nested-query re-aggregation); group keys always
		// stay since they define the output cardinality.
		if needed != nil {
			var aggs []AggSpec
			var names []string
			for i, name := range x.AggNames {
				if needed[name] {
					aggs = append(aggs, x.Aggs[i])
					names = append(names, name)
				}
			}
			x.Aggs = aggs
			x.AggNames = names
			x.schema = nil
		}
		childNeeded := addReads(make(nameSet), x)
		if len(childNeeded) == 0 {
			childNeeded = nil // COUNT(*) only: any column will do
		}
		x.Input = pruneNode(x.Input, childNeeded)
		return x
	case *JoinNode:
		leftNeeded, rightNeeded := nameSet(nil), nameSet(nil)
		if needed != nil {
			leftNeeded, rightNeeded = make(nameSet), make(nameSet)
			for name := range inputNeeds(make(nameSet), x, needed) {
				if _, ok := x.Left.Schema().Lookup(name); ok {
					leftNeeded[name] = true
				}
				if _, ok := x.Right.Schema().Lookup(name); ok {
					rightNeeded[name] = true
				}
			}
		}
		x.Left = pruneNode(x.Left, leftNeeded)
		x.Right = pruneNode(x.Right, rightNeeded)
		x.schema = nil
		return x
	case *UnionNode:
		// Positional semantics: pruning either side would misalign columns,
		// so both branches keep their full output.
		x.Left = pruneNode(x.Left, nil)
		x.Right = pruneNode(x.Right, nil)
		return x
	case *FlattenNode:
		// Its own two columns come from no input.
		x.Input = pruneNode(x.Input, inputNeeds(make(nameSet), x, needed, x.Alias+".VALUE", x.Alias+".INDEX"))
		x.schema = nil
		return x
	}
	// Filter, Sort and Limit pass their input's columns through.
	childNeeded := inputNeeds(make(nameSet), n, needed)
	inputSlots(n, func(in *Node) { *in = pruneNode(*in, childNeeded) })
	return n
}

// inputNeeds fills into with the columns n's input must supply for n to
// output needed: those but the ones n makes itself (own), plus every column
// n's expressions read. A nil needed, every column, gives nil. The callers
// make into, so it stays on their stack.
func inputNeeds(into nameSet, n Node, needed nameSet, own ...string) nameSet {
	if needed == nil {
		return nil
	}
	for k := range needed {
		if !slices.Contains(own, k) {
			into[k] = true
		}
	}
	return addReads(into, n)
}

// addReads adds every column n's expressions read to into and returns it.
func addReads(into nameSet, n Node) nameSet {
	exprSlots(n, func(e *sqlast.Expr) { refsOf(*e, into) })
	return into
}

// --- zone-map prune derivation --------------------------------------------

// deriveScanPrunes turns each scan filter conjunct a zone map can decide
// into a prune predicate on that scan.
func deriveScanPrunes(n Node) {
	forEachNode(n, func(x Node) {
		if s, ok := x.(*ScanNode); ok {
			for _, c := range splitConjuncts(s.Filter) {
				if pred, ok := toPrunePredicate(c); ok {
					s.Prunes = append(s.Prunes, pred)
				}
			}
		}
	})
}

// toPrunePredicate recognizes `path-expr op literal` (or flipped) where
// path-expr is a column or a GET chain with constant string keys.
func toPrunePredicate(c sqlast.Expr) (storage.PrunePredicate, bool) {
	b, ok := c.(*sqlast.Binary)
	if !ok {
		return storage.PrunePredicate{}, false
	}
	var op storage.PruneOp
	flipped := map[storage.PruneOp]storage.PruneOp{
		storage.PruneEq: storage.PruneEq,
		storage.PruneLt: storage.PruneGt,
		storage.PruneLe: storage.PruneGe,
		storage.PruneGt: storage.PruneLt,
		storage.PruneGe: storage.PruneLe,
	}
	switch b.Op {
	case "=":
		op = storage.PruneEq
	case "<":
		op = storage.PruneLt
	case "<=":
		op = storage.PruneLe
	case ">":
		op = storage.PruneGt
	case ">=":
		op = storage.PruneGe
	default:
		return storage.PrunePredicate{}, false
	}
	if col, path, ok := pathOf(b.Left); ok {
		if lit, isLit := b.Right.(*sqlast.Lit); isLit && !lit.Value.IsNull() {
			return storage.PrunePredicate{Column: col, Path: path, Op: op, Value: lit.Value}, true
		}
	}
	if col, path, ok := pathOf(b.Right); ok {
		if lit, isLit := b.Left.(*sqlast.Lit); isLit && !lit.Value.IsNull() {
			return storage.PrunePredicate{Column: col, Path: path, Op: flipped[op], Value: lit.Value}, true
		}
	}
	return storage.PrunePredicate{}, false
}

func pathOf(e sqlast.Expr) (col, path string, ok bool) {
	switch x := e.(type) {
	case *sqlast.ColRef:
		if x.Table != "" {
			return "", "", false
		}
		return x.Name, "", true
	case *sqlast.FuncCall:
		if strings.ToUpper(x.Name) != "GET" || len(x.Args) != 2 {
			return "", "", false
		}
		key, isLit := x.Args[1].(*sqlast.Lit)
		if !isLit || key.Value.Kind() != variant.KindString {
			return "", "", false
		}
		baseCol, basePath, baseOK := pathOf(x.Args[0])
		if !baseOK {
			return "", "", false
		}
		if basePath == "" {
			return baseCol, key.Value.AsString(), true
		}
		return baseCol, basePath + "." + key.Value.AsString(), true
	}
	return "", "", false
}
