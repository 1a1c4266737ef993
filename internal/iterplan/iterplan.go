// Package iterplan converts a JSONiq expression tree into a tree of
// iterators, mirroring RumbleDB's third compilation phase (§III-A3 of the
// paper). Each expression-tree node becomes exactly one iterator. FLWOR
// clause iterators are chained: the left child points to the preceding
// clause iterator and the right child to the clause's subexpression
// (Figure 3b). Neither back-end walks this tree: the Snowpark translator
// works on the expression tree, and core.Translate builds this tree only for
// the per-query iterator census, which reproduces Table II; the interpreted
// runtime evaluates the expression tree directly.
package iterplan

import (
	"fmt"

	"jsonpark/internal/jsoniq"
)

// Kind classifies an iterator for diagnostics and the census.
type Kind string

// Iterator kinds. FLWOR clause iterators are the seven clause kinds plus
// the synthetic "return" iterator that roots every FLWOR expression.
const (
	KindFor         Kind = "for"
	KindLet         Kind = "let"
	KindWhere       Kind = "where"
	KindGroupBy     Kind = "group-by"
	KindOrderBy     Kind = "order-by"
	KindCount       Kind = "count"
	KindReturn      Kind = "return"
	KindLiteral     Kind = "literal"
	KindVariable    Kind = "variable"
	KindCollection  Kind = "collection"
	KindFieldAccess Kind = "field-access"
	KindUnbox       Kind = "array-unbox"
	KindIndex       Kind = "array-index"
	KindObjectCtor  Kind = "object-constructor"
	KindArrayCtor   Kind = "array-constructor"
	KindComparison  Kind = "comparison"
	KindArithmetic  Kind = "arithmetic"
	KindLogical     Kind = "logical"
	KindRange       Kind = "range"
	KindConcat      Kind = "concat"
	KindUnary       Kind = "unary"
	KindConditional Kind = "conditional"
	KindFunction    Kind = "function-call"
)

// Iterator is one node of the iterator tree.
type Iterator struct {
	Kind     Kind
	IsFLWOR  bool
	Expr     jsoniq.Expr   // the expression node (nil for clause iterators)
	Clause   jsoniq.Clause // the clause (nil for expression iterators)
	Children []*Iterator

	// For FLWOR clause iterators: Left is the preceding clause (nil for the
	// first clause) and Right the attached subexpression(s), following the
	// two-child structure of §III-B2. They alias Children[0]/Children[1:].
	Left  *Iterator
	Right []*Iterator
}

// Build converts an expression tree into an iterator tree.
func Build(e jsoniq.Expr) (*Iterator, error) {
	var b builder
	it := b.expr(e)
	if b.err != nil {
		return nil, b.err
	}
	return it, nil
}

// MustBuild is Build that panics on error.
func MustBuild(e jsoniq.Expr) *Iterator {
	it, err := Build(e)
	if err != nil {
		panic(err)
	}
	return it
}

// builder builds one iterator per node over jsoniq.MapChildren and
// jsoniq.MapClause, keeping the first error.
type builder struct{ err error }

func (b *builder) expr(e jsoniq.Expr) *Iterator {
	if f, ok := e.(*jsoniq.FLWOR); ok {
		return b.flwor(f)
	}
	it := &Iterator{Kind: exprKind(e), Expr: e}
	if it.Kind == "" && b.err == nil {
		b.err = fmt.Errorf("iterplan: unsupported expression %T", e)
	}
	jsoniq.MapChildren(e, b.appendTo(&it.Children))
	return it
}

// appendTo returns a child callback that appends the iterator of each
// expression it is handed to out.
func (b *builder) appendTo(out *[]*Iterator) func(jsoniq.Expr) jsoniq.Expr {
	return func(c jsoniq.Expr) jsoniq.Expr {
		*out = append(*out, b.expr(c))
		return c
	}
}

// flwor chains clause iterators left-to-right and roots the chain in a
// return iterator: each one's left child is the preceding clause's iterator
// and its right children are the iterators of the clause's expressions.
func (b *builder) flwor(f *jsoniq.FLWOR) *Iterator {
	var prev *Iterator
	link := func(it *Iterator, rights []*Iterator) {
		it.IsFLWOR = true
		it.Left = prev
		it.Right = rights
		if prev != nil {
			it.Children = append(it.Children, prev)
		}
		it.Children = append(it.Children, rights...)
		prev = it
	}
	for _, c := range f.Clauses {
		var rights []*Iterator
		jsoniq.MapClause(c, b.appendTo(&rights))
		link(&Iterator{Kind: clauseKinds[c.Kind()], Clause: c}, rights)
	}
	link(&Iterator{Kind: KindReturn, Expr: f}, []*Iterator{b.expr(f.Return)})
	return prev
}

// clauseKinds maps a clause keyword (jsoniq.Clause.Kind) to its iterator
// kind.
var clauseKinds = map[string]Kind{
	"for": KindFor, "let": KindLet, "where": KindWhere,
	"group by": KindGroupBy, "order by": KindOrderBy, "count": KindCount,
}

// exprKind maps an expression node to its iterator kind; "" for none.
func exprKind(e jsoniq.Expr) Kind {
	switch x := e.(type) {
	case *jsoniq.Literal:
		return KindLiteral
	case *jsoniq.VarRef:
		return KindVariable
	case *jsoniq.Collection:
		return KindCollection
	case *jsoniq.FieldAccess:
		return KindFieldAccess
	case *jsoniq.ArrayUnbox:
		return KindUnbox
	case *jsoniq.ArrayIndex:
		return KindIndex
	case *jsoniq.ObjectCtor:
		return KindObjectCtor
	case *jsoniq.ArrayCtor:
		return KindArrayCtor
	case *jsoniq.Binary:
		switch x.Op {
		case jsoniq.OpEq, jsoniq.OpNe, jsoniq.OpLt, jsoniq.OpLe, jsoniq.OpGt, jsoniq.OpGe:
			return KindComparison
		case jsoniq.OpAnd, jsoniq.OpOr:
			return KindLogical
		case jsoniq.OpTo:
			return KindRange
		case jsoniq.OpConcat:
			return KindConcat
		}
		return KindArithmetic
	case *jsoniq.Unary:
		return KindUnary
	case *jsoniq.If:
		return KindConditional
	case *jsoniq.FunctionCall:
		return KindFunction
	}
	return ""
}

// Census counts iterators, split into FLWOR clause iterators and the rest —
// the classification of the paper's Table II.
type CensusResult struct {
	FLWOR int
	Other int
}

// Total returns the overall iterator count.
func (c CensusResult) Total() int { return c.FLWOR + c.Other }

// Census walks the tree and counts each iterator exactly once.
func Census(root *Iterator) CensusResult {
	var res CensusResult
	seen := make(map[*Iterator]bool)
	var walk func(it *Iterator)
	walk = func(it *Iterator) {
		if it == nil || seen[it] {
			return
		}
		seen[it] = true
		if it.IsFLWOR {
			res.FLWOR++
		} else {
			res.Other++
		}
		for _, c := range it.Children {
			walk(c)
		}
	}
	walk(root)
	return res
}
