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
	return buildExpr(e)
}

// MustBuild is Build that panics on error.
func MustBuild(e jsoniq.Expr) *Iterator {
	it, err := Build(e)
	if err != nil {
		panic(err)
	}
	return it
}

func buildExpr(e jsoniq.Expr) (*Iterator, error) {
	switch x := e.(type) {
	case *jsoniq.Literal:
		return &Iterator{Kind: KindLiteral, Expr: e}, nil
	case *jsoniq.VarRef:
		return &Iterator{Kind: KindVariable, Expr: e}, nil
	case *jsoniq.Collection:
		return &Iterator{Kind: KindCollection, Expr: e}, nil
	case *jsoniq.FieldAccess:
		base, err := buildExpr(x.Base)
		if err != nil {
			return nil, err
		}
		return &Iterator{Kind: KindFieldAccess, Expr: e, Children: []*Iterator{base}}, nil
	case *jsoniq.ArrayUnbox:
		base, err := buildExpr(x.Base)
		if err != nil {
			return nil, err
		}
		return &Iterator{Kind: KindUnbox, Expr: e, Children: []*Iterator{base}}, nil
	case *jsoniq.ArrayIndex:
		base, err := buildExpr(x.Base)
		if err != nil {
			return nil, err
		}
		idx, err := buildExpr(x.Index)
		if err != nil {
			return nil, err
		}
		return &Iterator{Kind: KindIndex, Expr: e, Children: []*Iterator{base, idx}}, nil
	case *jsoniq.ObjectCtor:
		it := &Iterator{Kind: KindObjectCtor, Expr: e}
		for _, v := range x.Values {
			c, err := buildExpr(v)
			if err != nil {
				return nil, err
			}
			it.Children = append(it.Children, c)
		}
		return it, nil
	case *jsoniq.ArrayCtor:
		it := &Iterator{Kind: KindArrayCtor, Expr: e}
		for _, v := range x.Items {
			c, err := buildExpr(v)
			if err != nil {
				return nil, err
			}
			it.Children = append(it.Children, c)
		}
		return it, nil
	case *jsoniq.Binary:
		l, err := buildExpr(x.Left)
		if err != nil {
			return nil, err
		}
		r, err := buildExpr(x.Right)
		if err != nil {
			return nil, err
		}
		kind := KindArithmetic
		switch x.Op {
		case jsoniq.OpEq, jsoniq.OpNe, jsoniq.OpLt, jsoniq.OpLe, jsoniq.OpGt, jsoniq.OpGe:
			kind = KindComparison
		case jsoniq.OpAnd, jsoniq.OpOr:
			kind = KindLogical
		case jsoniq.OpTo:
			kind = KindRange
		case jsoniq.OpConcat:
			kind = KindConcat
		}
		return &Iterator{Kind: kind, Expr: e, Children: []*Iterator{l, r}}, nil
	case *jsoniq.Unary:
		o, err := buildExpr(x.Operand)
		if err != nil {
			return nil, err
		}
		return &Iterator{Kind: KindUnary, Expr: e, Children: []*Iterator{o}}, nil
	case *jsoniq.If:
		cond, err := buildExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		then, err := buildExpr(x.Then)
		if err != nil {
			return nil, err
		}
		els, err := buildExpr(x.Else)
		if err != nil {
			return nil, err
		}
		return &Iterator{Kind: KindConditional, Expr: e, Children: []*Iterator{cond, then, els}}, nil
	case *jsoniq.FunctionCall:
		it := &Iterator{Kind: KindFunction, Expr: e}
		for _, a := range x.Args {
			c, err := buildExpr(a)
			if err != nil {
				return nil, err
			}
			it.Children = append(it.Children, c)
		}
		return it, nil
	case *jsoniq.FLWOR:
		return buildFLWOR(x)
	}
	return nil, fmt.Errorf("iterplan: unsupported expression %T", e)
}

// buildFLWOR chains clause iterators left-to-right and roots the chain in a
// return iterator.
func buildFLWOR(f *jsoniq.FLWOR) (*Iterator, error) {
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
		switch cl := c.(type) {
		case *jsoniq.ForClause:
			in, err := buildExpr(cl.In)
			if err != nil {
				return nil, err
			}
			link(&Iterator{Kind: KindFor, Clause: cl}, []*Iterator{in})
		case *jsoniq.LetClause:
			expr, err := buildExpr(cl.Expr)
			if err != nil {
				return nil, err
			}
			link(&Iterator{Kind: KindLet, Clause: cl}, []*Iterator{expr})
		case *jsoniq.WhereClause:
			cond, err := buildExpr(cl.Cond)
			if err != nil {
				return nil, err
			}
			link(&Iterator{Kind: KindWhere, Clause: cl}, []*Iterator{cond})
		case *jsoniq.GroupByClause:
			var rights []*Iterator
			for _, k := range cl.Keys {
				if k.Expr == nil {
					continue
				}
				keyIt, err := buildExpr(k.Expr)
				if err != nil {
					return nil, err
				}
				rights = append(rights, keyIt)
			}
			link(&Iterator{Kind: KindGroupBy, Clause: cl}, rights)
		case *jsoniq.OrderByClause:
			var rights []*Iterator
			for _, k := range cl.Keys {
				keyIt, err := buildExpr(k.Expr)
				if err != nil {
					return nil, err
				}
				rights = append(rights, keyIt)
			}
			link(&Iterator{Kind: KindOrderBy, Clause: cl}, rights)
		case *jsoniq.CountClause:
			link(&Iterator{Kind: KindCount, Clause: cl}, nil)
		default:
			return nil, fmt.Errorf("iterplan: unsupported clause %T", c)
		}
	}
	ret, err := buildExpr(f.Return)
	if err != nil {
		return nil, err
	}
	root := &Iterator{Kind: KindReturn, Expr: f}
	root.IsFLWOR = true
	root.Left = prev
	root.Right = []*Iterator{ret}
	if prev != nil {
		root.Children = append(root.Children, prev)
	}
	root.Children = append(root.Children, ret)
	return root, nil
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
