package engine

import (
	"fmt"
	"slices"
	"strings"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/storage"
)

// Node is a logical plan operator. Schemas are resolved at build time.
type Node interface {
	Schema() *Schema
}

// Schema names the columns of a row stream. Later duplicates shadow earlier
// ones, matching SELECT-list alias behaviour.
type Schema struct {
	Names []string
	index map[string]int
}

// NewSchema builds a schema from column names.
func NewSchema(names []string) *Schema {
	s := &Schema{Names: append([]string(nil), names...), index: make(map[string]int, len(names))}
	for i, n := range names {
		s.index[n] = i
	}
	return s
}

// Lookup returns the position of a column.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Extend returns a new schema with extra columns appended.
func (s *Schema) Extend(names ...string) *Schema {
	return NewSchema(append(append([]string(nil), s.Names...), names...))
}

// ScanNode reads a table's micro-partitions. Columns is the projected subset
// (projection pruning rewrites it); Filter is the pushed-down residual
// predicate; Prunes are zone-map predicates for partition pruning.
type ScanNode struct {
	Table   *storage.Table
	Columns []string
	Filter  sqlast.Expr
	Prunes  []storage.PrunePredicate
	schema  *Schema
}

// FilterNode keeps rows whose condition is TRUE.
type FilterNode struct {
	Input Node
	Cond  sqlast.Expr
}

// ProjectNode computes one output column per expression.
type ProjectNode struct {
	Input  Node
	Exprs  []sqlast.Expr
	Names  []string
	schema *Schema
}

// FlattenNode is LATERAL FLATTEN: per input row it emits one row per element
// of the array-valued Expr, appending columns "<Alias>.VALUE" and
// "<Alias>.INDEX". With Outer, rows whose input is empty or not an array
// still emit one row with NULLs. From, set by the flatten-bound rule
// (discard.go), is where each row's expansion starts.
type FlattenNode struct {
	Input  Node
	Expr   sqlast.Expr
	Outer  bool
	Alias  string
	From   *FlattenBound
	schema *Schema
}

// FlattenBound is a lower bound a FLATTEN's consumer puts on one of its
// columns: the conjunct `Expr < col` (`Expr <= col` unless Strict), where
// col is the INDEX or, with Value, the VALUE of a FLATTEN over
// ARRAY_RANGE(lo, hi), and Expr reads only the FLATTEN's input. Per input
// row whose Expr is an integer, the FLATTEN skips the positions the
// conjunct rejects; the conjunct stays in the filter above.
type FlattenBound struct {
	Expr   sqlast.Expr
	Strict bool
	Value  bool
}

// AggSpec is one aggregate computation. Top1, set by the top-1 rule
// (discard.go) on an ordered ARRAY_AGG whose array is only read at index 0,
// makes the aggregate output that element alone.
type AggSpec struct {
	Name     string // upper-case function name
	Arg      sqlast.Expr
	Star     bool // COUNT(*)
	Distinct bool
	OrderBy  []sqlast.OrderItem // ARRAY_AGG ... WITHIN GROUP
	Top1     bool
}

// AggregateNode groups by the GroupBy expressions and computes Aggs.
// Output schema: GroupNames then AggNames. Stream is set by the physical pass
// (physical.go) when the single group key is a column proven non-decreasing
// in row order: the node then runs as a streaming aggregate instead of a
// hash table, with identical output. Why is the physical pass's verdict on a
// hash aggregate's two-phase partitioned execution: the rule keeping it
// sequential, empty when it may fan out at run time (parallel.go). With Why
// empty, Scan and Stages (execution order) are the segment the physical pass
// walked below the aggregate: what its fanned-out workers and a view's
// refreshes replay.
type AggregateNode struct {
	Input      Node
	GroupBy    []sqlast.Expr
	GroupNames []string
	Aggs       []AggSpec
	AggNames   []string
	Stream     bool
	Why        string
	Scan       *ScanNode
	Stages     []Node
	schema     *Schema
}

// JoinNode joins two inputs. On is the parsed condition: predicate pushdown
// splits it into hash keys (LeftKeys/RightKeys), from its equalities across
// the sides, and the Residual, and clears it, for every join kind, so the
// operator never evaluates On (planck checks). The physical pass (physical.go)
// sets Why, the rule keeping an equi-join's probe out of the segment below
// it, and Match, the segment of the right input a left build's match pass
// fans out over.
type JoinNode struct {
	Kind      string // INNER, LEFT OUTER, CROSS
	Left      Node
	Right     Node
	On        sqlast.Expr
	LeftKeys  []sqlast.Expr
	RightKeys []sqlast.Expr
	Residual  sqlast.Expr
	Why       string
	Match     *ExchangeNode
	schema    *Schema
}

// SortNode orders rows by its keys using the variant total order.
type SortNode struct {
	Input Node
	Keys  []sqlast.OrderItem
}

// LimitNode truncates the stream.
type LimitNode struct {
	Input Node
	N     int64
}

// UnionNode concatenates two inputs (UNION ALL); schemas align by position.
type UnionNode struct {
	Left  Node
	Right Node
}

func (n *ScanNode) Schema() *Schema {
	if n.schema == nil {
		n.schema = NewSchema(n.Columns)
	}
	return n.schema
}
func (n *FilterNode) Schema() *Schema { return n.Input.Schema() }
func (n *ProjectNode) Schema() *Schema {
	if n.schema == nil {
		n.schema = NewSchema(n.Names)
	}
	return n.schema
}
func (n *FlattenNode) Schema() *Schema {
	if n.schema == nil {
		n.schema = n.Input.Schema().Extend(n.Alias+".VALUE", n.Alias+".INDEX")
	}
	return n.schema
}
func (n *AggregateNode) Schema() *Schema {
	if n.schema == nil {
		n.schema = NewSchema(append(append([]string(nil), n.GroupNames...), n.AggNames...))
	}
	return n.schema
}
func (n *JoinNode) Schema() *Schema {
	if n.schema == nil {
		n.schema = NewSchema(append(append([]string(nil), n.Left.Schema().Names...), n.Right.Schema().Names...))
	}
	return n.schema
}
func (n *SortNode) Schema() *Schema  { return n.Input.Schema() }
func (n *LimitNode) Schema() *Schema { return n.Input.Schema() }
func (n *UnionNode) Schema() *Schema { return n.Left.Schema() }

// --- traversal ---------------------------------------------------------------
//
// inputSlots and exprSlots are the only lists of what each node kind holds:
// every rule that visits inputs or expressions without caring about the kind
// goes through them, so a new kind or field is declared once, here
// (TestPlanTraversal checks both against the node structs). The physical
// annotations AggregateNode/ExchangeNode.Scan and .Stages and JoinNode.Match
// are not inputs.
// Both call fn on each slot rather than return a list, so walking a plan
// allocates nothing.

// inputSlots calls fn on each of n's inputs in execution order, as a slot a
// rewrite may replace.
func inputSlots(n Node, fn func(*Node)) {
	switch x := n.(type) {
	case *FilterNode:
		fn(&x.Input)
	case *ProjectNode:
		fn(&x.Input)
	case *FlattenNode:
		fn(&x.Input)
	case *AggregateNode:
		fn(&x.Input)
	case *ExchangeNode:
		fn(&x.Input)
	case *JoinNode:
		fn(&x.Left)
		fn(&x.Right)
	case *SortNode:
		fn(&x.Input)
	case *LimitNode:
		fn(&x.Input)
	case *UnionNode:
		fn(&x.Left)
		fn(&x.Right)
	}
}

// forEachNode calls fn on n and every node below it, parents first.
func forEachNode(n Node, fn func(Node)) {
	fn(n)
	inputSlots(n, func(in *Node) { forEachNode(*in, fn) })
}

// exprSlots calls fn on each expression n evaluates, as a slot a rewrite may
// replace. A slot may hold nil: a join's cleared On or absent Residual,
// COUNT(*)'s Arg, a scan with no pushed filter.
func exprSlots(n Node, fn func(*sqlast.Expr)) {
	switch x := n.(type) {
	case *ScanNode:
		fn(&x.Filter)
	case *FilterNode:
		fn(&x.Cond)
	case *SortNode:
		for i := range x.Keys {
			fn(&x.Keys[i].Expr)
		}
	case *FlattenNode:
		fn(&x.Expr)
		if x.From != nil {
			fn(&x.From.Expr)
		}
	case *JoinNode:
		fn(&x.On)
		fn(&x.Residual)
		for i := range x.LeftKeys {
			fn(&x.LeftKeys[i])
		}
		for i := range x.RightKeys {
			fn(&x.RightKeys[i])
		}
	case *ProjectNode:
		for i := range x.Exprs {
			fn(&x.Exprs[i])
		}
	case *AggregateNode:
		for i := range x.GroupBy {
			fn(&x.GroupBy[i])
		}
		for i := range x.Aggs {
			fn(&x.Aggs[i].Arg)
			for j := range x.Aggs[i].OrderBy {
				fn(&x.Aggs[i].OrderBy[j].Expr)
			}
		}
	}
}

// planner builds logical plans from parsed SQL.
type planner struct {
	catalog *storage.Catalog
	// tables collects each table instance a name resolved to, once.
	tables []*storage.Table
}

// Build converts a parsed query into an unoptimized logical plan.
func (p *planner) Build(q sqlast.Query) (Node, error) {
	switch x := q.(type) {
	case *sqlast.Select:
		return p.buildSelect(x)
	case *sqlast.SetOp:
		left, err := p.Build(x.Left)
		if err != nil {
			return nil, err
		}
		right, err := p.Build(x.Right)
		if err != nil {
			return nil, err
		}
		if len(left.Schema().Names) != len(right.Schema().Names) {
			return nil, fmt.Errorf("engine: UNION ALL arity mismatch: %d vs %d columns",
				len(left.Schema().Names), len(right.Schema().Names))
		}
		return &UnionNode{Left: left, Right: right}, nil
	}
	return nil, fmt.Errorf("engine: unknown query node %T", q)
}

func (p *planner) buildSelect(s *sqlast.Select) (Node, error) {
	var node Node
	if s.From == nil {
		return nil, fmt.Errorf("engine: SELECT without FROM is not supported")
	}
	node, err := p.buildFrom(s.From)
	if err != nil {
		return nil, err
	}
	if s.Where != nil {
		node = &FilterNode{Input: node, Cond: s.Where}
	}

	// Expand stars in the select list against the pre-aggregate schema.
	items, err := expandStars(s.Items, node.Schema())
	if err != nil {
		return nil, err
	}

	// Aggregate detection: GROUP BY present, or any aggregate call in the
	// select list / HAVING / ORDER BY.
	hasAgg := len(s.GroupBy) > 0 || s.Having != nil
	for _, it := range items {
		if ContainsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	for _, o := range s.OrderBy {
		if ContainsAggregate(o.Expr) {
			hasAgg = true
		}
	}

	having := s.Having
	orderBy := append([]sqlast.OrderItem(nil), s.OrderBy...)

	// Output names are needed up front so ORDER BY can resolve select-list
	// aliases without being rewritten through the aggregate.
	names := make([]string, len(items))
	for i, it := range items {
		names[i] = it.Alias
		if names[i] == "" {
			if cr, ok := it.Expr.(*sqlast.ColRef); ok && cr.Table == "" {
				names[i] = cr.Name
			} else {
				names[i] = sqlast.RenderExpr(it.Expr)
			}
		}
	}

	if hasAgg {
		agg := &AggregateNode{Input: node, GroupBy: append([]sqlast.Expr(nil), s.GroupBy...)}
		for i := range agg.GroupBy {
			agg.GroupNames = append(agg.GroupNames, fmt.Sprintf("__g%d", i))
		}
		// Select-list aliases may appear in ORDER BY; remember the original
		// defining expressions so ORDER BY "alias" and ORDER BY SUM(x) both
		// resolve against the aggregate output.
		aliasDefs := make(map[string]sqlast.Expr, len(items))
		for i, it := range items {
			aliasDefs[names[i]] = it.Expr
		}
		rw := &aggRewriter{agg: agg}
		for i := range items {
			items[i].Expr, err = rw.rewrite(items[i].Expr)
			if err != nil {
				return nil, err
			}
		}
		if having != nil {
			having, err = rw.rewrite(having)
			if err != nil {
				return nil, err
			}
		}
		for i := range orderBy {
			key, _ := inlineRefs(orderBy[i].Expr, func(cr *sqlast.ColRef) sqlast.Expr {
				if def, ok := aliasDefs[cr.Name]; ok && cr.Table == "" {
					return def
				}
				return cr
			})
			orderBy[i].Expr, err = rw.rewrite(key)
			if err != nil {
				return nil, fmt.Errorf("engine: ORDER BY key %s: %w", sqlast.RenderExpr(orderBy[i].Expr), err)
			}
		}
		node = agg
		if having != nil {
			node = &FilterNode{Input: node, Cond: having}
		}
		// Sort on the aggregate output, before projection (which preserves
		// row order).
		if len(orderBy) > 0 {
			node = &SortNode{Input: node, Keys: orderBy}
			orderBy = nil
		}
	}

	exprs := make([]sqlast.Expr, len(items))
	for i, it := range items {
		exprs[i] = it.Expr
	}
	proj := &ProjectNode{Input: node, Exprs: exprs, Names: names}

	var out Node = proj
	if len(orderBy) > 0 {
		// ORDER BY may reference select aliases (post-projection schema) or
		// input columns (pre-projection). Prefer the projected schema.
		if exprsResolve(proj.Schema(), orderBy) {
			out = &SortNode{Input: proj, Keys: orderBy}
		} else if exprsResolve(node.Schema(), orderBy) {
			proj.Input = &SortNode{Input: node, Keys: orderBy}
			out = proj
		} else {
			return nil, fmt.Errorf("engine: ORDER BY references unknown columns")
		}
	}
	if s.Limit != nil {
		out = &LimitNode{Input: out, N: *s.Limit}
	}
	return out, nil
}

func (p *planner) buildFrom(f sqlast.FromItem) (Node, error) {
	switch x := f.(type) {
	case *sqlast.TableRef:
		t, err := p.catalog.Table(x.Name)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(p.tables, t) {
			p.tables = append(p.tables, t)
		}
		return &ScanNode{Table: t, Columns: append([]string(nil), t.Columns...)}, nil
	case *sqlast.SubqueryRef:
		return p.Build(x.Query)
	case *sqlast.Join:
		left, err := p.buildFrom(x.Left)
		if err != nil {
			return nil, err
		}
		right, err := p.buildFrom(x.Right)
		if err != nil {
			return nil, err
		}
		return &JoinNode{Kind: x.Kind, Left: left, Right: right, On: x.On}, nil
	case *sqlast.Flatten:
		src, err := p.buildFrom(x.Source)
		if err != nil {
			return nil, err
		}
		return &FlattenNode{Input: src, Expr: x.Input, Outer: x.Outer, Alias: x.Alias}, nil
	}
	return nil, fmt.Errorf("engine: unknown from node %T", f)
}

func expandStars(items []sqlast.SelectItem, sc *Schema) ([]sqlast.SelectItem, error) {
	out := make([]sqlast.SelectItem, 0, len(items))
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, name := range sc.Names {
			ref := colRefFor(name)
			out = append(out, sqlast.SelectItem{Expr: ref, Alias: name})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("engine: empty select list")
	}
	return out, nil
}

// colRefFor rebuilds a ColRef from a schema name, restoring the
// "alias.VALUE" qualification of flatten pseudo-columns.
func colRefFor(name string) *sqlast.ColRef {
	if i := strings.LastIndex(name, "."); i > 0 {
		suffix := name[i+1:]
		if suffix == "VALUE" || suffix == "INDEX" {
			return &sqlast.ColRef{Table: name[:i], Name: suffix}
		}
	}
	return &sqlast.ColRef{Name: name}
}

// ContainsAggregate reports whether e calls an aggregate function.
func ContainsAggregate(e sqlast.Expr) bool {
	return anyNode(e, func(n sqlast.Expr) bool {
		fc, ok := n.(*sqlast.FuncCall)
		return ok && isAggregateName(fc.Name)
	})
}

// anyNode reports whether pred holds for e or any of its subexpressions.
func anyNode(e sqlast.Expr, pred func(sqlast.Expr) bool) bool {
	found := false
	sqlast.Walk(e, func(n sqlast.Expr) bool {
		found = found || pred(n)
		return !found
	})
	return found
}

// aggRewriter replaces aggregate calls and group-by expressions inside
// post-aggregation expressions with references to the AggregateNode's output
// columns, registering each distinct aggregate once.
type aggRewriter struct {
	agg *AggregateNode
}

func (rw *aggRewriter) rewrite(e sqlast.Expr) (sqlast.Expr, error) {
	var err error
	var visit func(sqlast.Expr) sqlast.Expr
	visit = func(e sqlast.Expr) sqlast.Expr {
		if err != nil {
			return e
		}
		// Whole-expression match against a GROUP BY key.
		for i, g := range rw.agg.GroupBy {
			if exprEqual(e, g) {
				return sqlast.C(rw.agg.GroupNames[i])
			}
		}
		switch x := e.(type) {
		case *sqlast.FuncCall:
			if isAggregateName(x.Name) {
				var ref sqlast.Expr
				ref, err = rw.registerAgg(x)
				return ref
			}
		case *sqlast.ColRef:
			err = fmt.Errorf("engine: column %s must appear in GROUP BY or inside an aggregate", sqlast.RenderExpr(x))
			return e
		}
		return sqlast.MapChildren(e, visit)
	}
	out := visit(e)
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (rw *aggRewriter) registerAgg(call *sqlast.FuncCall) (sqlast.Expr, error) {
	// The spec owns its order keys: the optimizer rewrites them in place.
	spec := AggSpec{Name: strings.ToUpper(call.Name), Distinct: call.Distinct, OrderBy: slices.Clone(call.WithinOrder)}
	switch len(call.Args) {
	case 0:
		return nil, fmt.Errorf("engine: %s requires an argument", spec.Name)
	case 1:
		if _, ok := call.Args[0].(*sqlast.Star); ok {
			if spec.Name != "COUNT" {
				return nil, fmt.Errorf("engine: only COUNT accepts '*'")
			}
			spec.Star = true
		} else {
			spec.Arg = call.Args[0]
		}
	default:
		return nil, fmt.Errorf("engine: %s accepts exactly one argument", spec.Name)
	}
	// Reuse identical aggregates.
	key := renderAggSpec(spec)
	for i, existing := range rw.agg.Aggs {
		if renderAggSpec(existing) == key {
			return sqlast.C(rw.agg.AggNames[i]), nil
		}
	}
	name := fmt.Sprintf("__a%d", len(rw.agg.Aggs))
	rw.agg.Aggs = append(rw.agg.Aggs, spec)
	rw.agg.AggNames = append(rw.agg.AggNames, name)
	return sqlast.C(name), nil
}

func renderAggSpec(s AggSpec) string {
	var b strings.Builder
	b.WriteString(s.Name)
	if s.Distinct {
		b.WriteString(" DISTINCT")
	}
	if s.Star {
		b.WriteString(" *")
	}
	if s.Arg != nil {
		b.WriteString(" ")
		b.WriteString(sqlast.RenderExpr(s.Arg))
	}
	for _, o := range s.OrderBy {
		b.WriteString(" O:")
		b.WriteString(sqlast.RenderExpr(o.Expr))
		if o.Desc {
			b.WriteString(" DESC")
		}
	}
	return b.String()
}

// exprEqual compares expressions structurally via their rendering.
func exprEqual(a, b sqlast.Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return sqlast.RenderExpr(a) == sqlast.RenderExpr(b)
}

// exprsResolve reports whether every order key compiles against the schema.
func exprsResolve(sc *Schema, keys []sqlast.OrderItem) bool {
	for _, k := range keys {
		if !exprResolves(sc, k.Expr) {
			return false
		}
	}
	return true
}

func exprResolves(sc *Schema, e sqlast.Expr) bool {
	return !anyNode(e, func(n sqlast.Expr) bool {
		cr, isRef := n.(*sqlast.ColRef)
		if !isRef {
			return false
		}
		_, found := sc.Lookup(cr.QualifiedName())
		return !found
	})
}
