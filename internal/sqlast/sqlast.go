// Package sqlast defines the abstract syntax tree of the SQL dialect emitted
// by the Snowpark layer and consumed by the engine, together with a
// deterministic textual renderer. The dialect is the subset of Snowflake SQL
// the paper's translation relies on: nested SELECTs, LATERAL FLATTEN with
// OUTER, INNER/LEFT OUTER/CROSS joins, GROUP BY with ARRAY_AGG/ANY_VALUE,
// ORDER BY, LIMIT, UNION ALL, CASE, `::` casts and scalar function calls.
package sqlast

import (
	"fmt"
	"strconv"
	"strings"

	"jsonpark/internal/variant"
)

// Expr is a scalar SQL expression.
type Expr interface{ exprNode() }

// Lit is a literal value.
type Lit struct{ Value variant.Value }

// ColRef references a column, optionally qualified by a FLATTEN alias
// (e.g. "f".VALUE).
type ColRef struct {
	Table string // optional qualifier
	Name  string
}

// Star is `*` in a select list or COUNT(*).
type Star struct{}

// FuncCall invokes a scalar or aggregate function. Distinct applies to
// aggregates (COUNT(DISTINCT x)); WithinOrder carries the
// `WITHIN GROUP (ORDER BY ...)` clause of ordered ARRAY_AGG.
type FuncCall struct {
	Name        string
	Args        []Expr
	Distinct    bool
	WithinOrder []OrderItem
}

// Binary applies a binary operator: + - * / % = <> < <= > >= AND OR ||.
type Binary struct {
	Op    string
	Left  Expr
	Right Expr
}

// Unary applies - or NOT.
type Unary struct {
	Op      string
	Operand Expr
}

// IsNull is `expr IS [NOT] NULL`.
type IsNull struct {
	Operand Expr
	Negate  bool
}

// CaseWhen is a searched CASE expression.
type CaseWhen struct {
	Whens []WhenClause
	Else  Expr // may be nil → NULL
}

// WhenClause is one WHEN cond THEN result arm.
type WhenClause struct {
	Cond   Expr
	Result Expr
}

// Cast renders as `expr :: TYPE`.
type Cast struct {
	Operand Expr
	Type    string
}

// QualifiedName is the name the reference resolves by: "table.name" when it
// is qualified, else the bare name.
func (c *ColRef) QualifiedName() string {
	if c.Table == "" {
		return c.Name
	}
	return c.Table + "." + c.Name
}

func (*Lit) exprNode()      {}
func (*ColRef) exprNode()   {}
func (*Star) exprNode()     {}
func (*FuncCall) exprNode() {}
func (*Binary) exprNode()   {}
func (*Unary) exprNode()    {}
func (*IsNull) exprNode()   {}
func (*CaseWhen) exprNode() {}
func (*Cast) exprNode()     {}

// Walk visits e and its subexpressions in pre-order, each node's children
// in the order MapChildren maps them; when fn returns false the node's
// children are skipped. A nil e is not visited.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *Lit, *ColRef, *Star:
	case *FuncCall:
		for _, a := range x.Args {
			Walk(a, fn)
		}
		for _, o := range x.WithinOrder {
			Walk(o.Expr, fn)
		}
	case *Binary:
		Walk(x.Left, fn)
		Walk(x.Right, fn)
	case *Unary:
		Walk(x.Operand, fn)
	case *IsNull:
		Walk(x.Operand, fn)
	case *CaseWhen:
		for _, w := range x.Whens {
			Walk(w.Cond, fn)
			Walk(w.Result, fn)
		}
		Walk(x.Else, fn)
	case *Cast:
		Walk(x.Operand, fn)
	default:
		panic(fmt.Sprintf("sqlast: unknown expr node %T", e))
	}
}

// MapChildren returns e with each direct child c replaced by fn(c), called
// in order on: a FuncCall's arguments, then its WITHIN GROUP keys; a
// Binary's operands; a CaseWhen's conditions and results, then its Else when
// present; the operand of a Unary, IsNull or Cast. Lit, ColRef and Star have
// no children. Nodes are immutable once built, so MapChildren never assigns
// into e: when fn returns every child unchanged it returns e itself and
// allocates nothing, otherwise a new node that shares the unchanged
// children. Every rewrite of an expression recurses through MapChildren or
// Walk, so these two are where a new kind of expression declares its
// children (TestTraversal checks they agree).
func MapChildren(e Expr, fn func(Expr) Expr) Expr {
	switch x := e.(type) {
	case nil, *Lit, *ColRef, *Star:
		return e
	case *FuncCall:
		args, argsChanged := mapSlice(x.Args, fn)
		order, orderChanged := mapSlice(x.WithinOrder, func(o OrderItem) OrderItem { o.Expr = fn(o.Expr); return o })
		if !argsChanged && !orderChanged {
			return e
		}
		return &FuncCall{Name: x.Name, Args: args, Distinct: x.Distinct, WithinOrder: order}
	case *Binary:
		l, r := fn(x.Left), fn(x.Right)
		if l == x.Left && r == x.Right {
			return e
		}
		return &Binary{Op: x.Op, Left: l, Right: r}
	case *Unary:
		if o := fn(x.Operand); o != x.Operand {
			return &Unary{Op: x.Op, Operand: o}
		}
		return e
	case *IsNull:
		if o := fn(x.Operand); o != x.Operand {
			return &IsNull{Operand: o, Negate: x.Negate}
		}
		return e
	case *CaseWhen:
		whens, changed := mapSlice(x.Whens, func(w WhenClause) WhenClause {
			return WhenClause{Cond: fn(w.Cond), Result: fn(w.Result)}
		})
		els := x.Else
		if els != nil {
			els = fn(els)
		}
		if !changed && els == x.Else {
			return e
		}
		return &CaseWhen{Whens: whens, Else: els}
	case *Cast:
		if o := fn(x.Operand); o != x.Operand {
			return &Cast{Operand: o, Type: x.Type}
		}
		return e
	}
	panic(fmt.Sprintf("sqlast: unknown expr node %T", e))
}

// mapSlice applies fn to each element of s in order. When every element
// comes back equal it returns s itself and false, else a new slice of the
// results and true.
func mapSlice[T comparable](s []T, fn func(T) T) ([]T, bool) {
	var out []T
	for i, v := range s {
		if c := fn(v); c != v || out != nil {
			if out == nil {
				out = append(make([]T, 0, len(s)), s[:i]...)
			}
			out = append(out, c)
		}
	}
	if out == nil {
		return s, false
	}
	return out, true
}

// Query is a full query: a Select or a set operation over queries.
type Query interface{ queryNode() }

// Select is one SELECT block.
type Select struct {
	Items   []SelectItem
	From    FromItem // may be nil for constant selects
	Where   Expr
	GroupBy []Expr
	Having  Expr
	OrderBy []OrderItem
	Limit   *int64
}

// SetOp is `left UNION ALL right`.
type SetOp struct {
	Op    string // only "UNION ALL"
	Left  Query
	Right Query
}

func (*Select) queryNode() {}
func (*SetOp) queryNode()  {}

// SelectItem is one projection: `*`, or expr [AS alias].
type SelectItem struct {
	Star  bool
	Expr  Expr
	Alias string
}

// OrderItem is one ordering criterion.
type OrderItem struct {
	Expr Expr
	Desc bool
	// NullsLast forces NULL ordering; the engine defaults to NULLs first
	// ascending / last descending, matching the variant total order.
}

// FromItem is a table expression.
type FromItem interface{ fromNode() }

// TableRef names a stored table.
type TableRef struct {
	Name  string
	Alias string
}

// SubqueryRef is a parenthesized query with an optional alias.
type SubqueryRef struct {
	Query Query
	Alias string
}

// Join combines two from-items. Kind is INNER, LEFT OUTER or CROSS.
type Join struct {
	Kind  string
	Left  FromItem
	Right FromItem
	On    Expr // nil for CROSS
}

// Flatten is `<src>, LATERAL FLATTEN(INPUT => expr, OUTER => bool) AS alias`:
// for each source row it unboxes the array-valued Input into one output row
// per element, exposing alias.VALUE and alias.INDEX. With OUTER => TRUE a
// source row with an empty or non-array input still emits one row with NULL
// VALUE/INDEX (§IV-C1 of the paper).
type Flatten struct {
	Source FromItem
	Input  Expr
	Outer  bool
	Alias  string
}

func (*TableRef) fromNode()    {}
func (*SubqueryRef) fromNode() {}
func (*Join) fromNode()        {}
func (*Flatten) fromNode()     {}

// Render produces the SQL text of a query. The output round-trips through
// sqlparse.Parse.
func Render(q Query) string {
	var b strings.Builder
	renderQuery(&b, q)
	return b.String()
}

// RenderExpr produces the SQL text of one expression.
func RenderExpr(e Expr) string {
	var b strings.Builder
	renderExpr(&b, e)
	return b.String()
}

func renderQuery(b *strings.Builder, q Query) {
	switch x := q.(type) {
	case *Select:
		renderSelect(b, x)
	case *SetOp:
		b.WriteByte('(')
		renderQuery(b, x.Left)
		b.WriteString(") ")
		b.WriteString(x.Op)
		b.WriteString(" (")
		renderQuery(b, x.Right)
		b.WriteByte(')')
	default:
		panic(fmt.Sprintf("sqlast: unknown query node %T", q))
	}
}

func renderSelect(b *strings.Builder, s *Select) {
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		if it.Star {
			b.WriteByte('*')
			continue
		}
		renderExpr(b, it.Expr)
		if it.Alias != "" {
			b.WriteString(" AS ")
			writeIdent(b, it.Alias)
		}
	}
	if s.From != nil {
		b.WriteString(" FROM ")
		renderFrom(b, s.From)
	}
	if s.Where != nil {
		b.WriteString(" WHERE ")
		renderExpr(b, s.Where)
	}
	if len(s.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		for i, e := range s.GroupBy {
			if i > 0 {
				b.WriteString(", ")
			}
			renderExpr(b, e)
		}
	}
	if s.Having != nil {
		b.WriteString(" HAVING ")
		renderExpr(b, s.Having)
	}
	if len(s.OrderBy) > 0 {
		b.WriteString(" ORDER BY ")
		renderOrderItems(b, s.OrderBy)
	}
	if s.Limit != nil {
		b.WriteString(" LIMIT ")
		b.WriteString(strconv.FormatInt(*s.Limit, 10))
	}
}

func renderOrderItems(b *strings.Builder, items []OrderItem) {
	for i, o := range items {
		if i > 0 {
			b.WriteString(", ")
		}
		renderExpr(b, o.Expr)
		if o.Desc {
			b.WriteString(" DESC")
		} else {
			b.WriteString(" ASC")
		}
	}
}

func renderFrom(b *strings.Builder, f FromItem) {
	switch x := f.(type) {
	case *TableRef:
		writeIdent(b, x.Name)
		if x.Alias != "" {
			b.WriteString(" AS ")
			writeIdent(b, x.Alias)
		}
	case *SubqueryRef:
		b.WriteByte('(')
		renderQuery(b, x.Query)
		b.WriteByte(')')
		if x.Alias != "" {
			b.WriteString(" AS ")
			writeIdent(b, x.Alias)
		}
	case *Join:
		renderFrom(b, x.Left)
		switch x.Kind {
		case "CROSS":
			b.WriteString(" CROSS JOIN ")
		case "LEFT OUTER":
			b.WriteString(" LEFT OUTER JOIN ")
		default:
			b.WriteString(" INNER JOIN ")
		}
		renderFrom(b, x.Right)
		if x.On != nil {
			b.WriteString(" ON ")
			renderExpr(b, x.On)
		}
	case *Flatten:
		renderFrom(b, x.Source)
		b.WriteString(", LATERAL FLATTEN(INPUT => ")
		renderExpr(b, x.Input)
		if x.Outer {
			b.WriteString(", OUTER => TRUE")
		}
		b.WriteString(") AS ")
		writeIdent(b, x.Alias)
	default:
		panic(fmt.Sprintf("sqlast: unknown from node %T", f))
	}
}

// binaryPrec orders operators for minimal-parenthesis rendering; we render
// conservatively with parens around every binary expression instead, which
// keeps the renderer and parser trivially consistent.
func renderExpr(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *Lit:
		renderLit(b, x.Value)
	case *ColRef:
		if x.Table != "" {
			writeIdent(b, x.Table)
			b.WriteByte('.')
			b.WriteString(x.Name) // VALUE / INDEX pseudo-columns
			return
		}
		writeIdent(b, x.Name)
	case *Star:
		b.WriteByte('*')
	case *FuncCall:
		b.WriteString(strings.ToUpper(x.Name))
		b.WriteByte('(')
		if x.Distinct {
			b.WriteString("DISTINCT ")
		}
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			renderExpr(b, a)
		}
		b.WriteByte(')')
		if len(x.WithinOrder) > 0 {
			b.WriteString(" WITHIN GROUP (ORDER BY ")
			renderOrderItems(b, x.WithinOrder)
			b.WriteByte(')')
		}
	case *Binary:
		b.WriteByte('(')
		renderExpr(b, x.Left)
		b.WriteByte(' ')
		b.WriteString(x.Op)
		b.WriteByte(' ')
		renderExpr(b, x.Right)
		b.WriteByte(')')
	case *Unary:
		b.WriteByte('(')
		b.WriteString(x.Op)
		b.WriteByte(' ')
		renderExpr(b, x.Operand)
		b.WriteByte(')')
	case *IsNull:
		b.WriteByte('(')
		renderExpr(b, x.Operand)
		if x.Negate {
			b.WriteString(" IS NOT NULL")
		} else {
			b.WriteString(" IS NULL")
		}
		b.WriteByte(')')
	case *CaseWhen:
		b.WriteString("CASE")
		for _, w := range x.Whens {
			b.WriteString(" WHEN ")
			renderExpr(b, w.Cond)
			b.WriteString(" THEN ")
			renderExpr(b, w.Result)
		}
		if x.Else != nil {
			b.WriteString(" ELSE ")
			renderExpr(b, x.Else)
		}
		b.WriteString(" END")
	case *Cast:
		b.WriteByte('(')
		renderExpr(b, x.Operand)
		b.WriteString(" :: ")
		b.WriteString(strings.ToUpper(x.Type))
		b.WriteByte(')')
	default:
		panic(fmt.Sprintf("sqlast: unknown expr node %T", e))
	}
}

func renderLit(b *strings.Builder, v variant.Value) {
	switch v.Kind() {
	case variant.KindNull:
		b.WriteString("NULL")
	case variant.KindBool:
		if v.AsBool() {
			b.WriteString("TRUE")
		} else {
			b.WriteString("FALSE")
		}
	case variant.KindInt:
		b.WriteString(strconv.FormatInt(v.AsInt(), 10))
	case variant.KindFloat:
		s := strconv.FormatFloat(v.AsFloat(), 'g', -1, 64)
		if !strings.ContainsAny(s, ".eE") {
			s += ".0"
		}
		b.WriteString(s)
	case variant.KindString:
		b.WriteByte('\'')
		b.WriteString(strings.ReplaceAll(v.AsString(), "'", "''"))
		b.WriteByte('\'')
	case variant.KindArray:
		// Array literals render via ARRAY_CONSTRUCT for parse round-tripping.
		b.WriteString("ARRAY_CONSTRUCT(")
		for i, e := range v.AsArray() {
			if i > 0 {
				b.WriteString(", ")
			}
			renderLit(b, e)
		}
		b.WriteByte(')')
	case variant.KindObject:
		b.WriteString("OBJECT_CONSTRUCT(")
		o := v.AsObject()
		for i, k := range o.Keys() {
			if i > 0 {
				b.WriteString(", ")
			}
			renderLit(b, variant.String(k))
			b.WriteString(", ")
			renderLit(b, o.ValueAt(i))
		}
		b.WriteByte(')')
	}
}

func writeIdent(b *strings.Builder, name string) {
	b.WriteByte('"')
	b.WriteString(strings.ReplaceAll(name, `"`, `""`))
	b.WriteByte('"')
}

// Helper constructors used heavily by the Snowpark layer and tests.

// L wraps a variant value as a literal expression.
func L(v variant.Value) *Lit { return &Lit{Value: v} }

// C references an unqualified column.
func C(name string) *ColRef { return &ColRef{Name: name} }

// F builds a function call.
func F(name string, args ...Expr) *FuncCall { return &FuncCall{Name: name, Args: args} }

// B builds a binary expression.
func B(op string, l, r Expr) *Binary { return &Binary{Op: op, Left: l, Right: r} }

// IntP returns a pointer to v, for Select.Limit.
func IntP(v int64) *int64 { return &v }
