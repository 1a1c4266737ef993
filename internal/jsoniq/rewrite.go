package jsoniq

import (
	"slices"

	"jsonpark/internal/variant"
)

// Rewrite applies back-end-agnostic expression-tree optimizations, mirroring
// RumbleDB's rewrite phase (§III-A2): constant folding of arithmetic, logic
// and conditionals over literals, and elimination of let-bound variables
// that are never referenced (dead code elimination). It rewrites bottom-up
// in one pass through MapChildren, so it never modifies e: the result shares
// every subtree that did not change, and is e itself when nothing did.
func Rewrite(e Expr) Expr {
	e = MapChildren(e, Rewrite)
	switch x := e.(type) {
	case *Unary:
		if lit, ok := x.Operand.(*Literal); ok {
			switch x.Op {
			case "-":
				if v, err := variant.Neg(lit.Value); err == nil {
					return &Literal{pos: x.pos, Value: v}
				}
			case "not":
				return &Literal{pos: x.pos, Value: variant.Bool(!lit.Value.Truthy())}
			}
		}
	case *Binary:
		return foldBinaryExpr(x)
	case *If:
		if lit, ok := x.Cond.(*Literal); ok {
			if lit.Value.Truthy() {
				return x.Then
			}
			return x.Else
		}
	case *FLWOR:
		return dropDeadLets(x)
	}
	return e
}

// foldBinaryExpr folds an operator over two literals, and a logical operator
// with one literal side: a side that decides the result (false for and,
// true for or) gives it, and a side that does not leaves the effective
// boolean value of the other side, never the other side's own value.
func foldBinaryExpr(x *Binary) Expr {
	l, lok := x.Left.(*Literal)
	r, rok := x.Right.(*Literal)
	if lok && rok {
		if v, ok := foldBinary(x.Op, l.Value, r.Value); ok {
			return &Literal{pos: x.pos, Value: v}
		}
	}
	if x.Op != OpAnd && x.Op != OpOr {
		return x
	}
	decides := x.Op == OpOr
	switch {
	case lok && l.Value.Truthy() == decides, rok && r.Value.Truthy() == decides:
		return &Literal{pos: x.pos, Value: variant.Bool(decides)}
	case lok:
		return asBoolean(x.Right)
	case rok:
		return asBoolean(x.Left)
	}
	return x
}

// asBoolean returns an expression for e's effective boolean value: e itself
// when it already is a boolean (a comparison, and, or, not, boolean(),
// exists() or empty()), the truth of a literal, else boolean(e).
func asBoolean(e Expr) Expr {
	switch x := e.(type) {
	case *Literal:
		if x.Value.Kind() != variant.KindBool {
			return &Literal{pos: x.pos, Value: variant.Bool(x.Value.Truthy())}
		}
		return e
	case *Binary:
		if x.Op >= OpEq && x.Op <= OpOr {
			return e
		}
	case *Unary:
		if x.Op == "not" {
			return e
		}
	case *FunctionCall:
		switch x.Name {
		case "boolean", "not", "exists", "empty":
			return e
		}
	}
	line, col := e.Pos()
	return &FunctionCall{pos: pos{line, col}, Name: "boolean", Args: []Expr{e}}
}

func foldBinary(op BinaryOp, l, r variant.Value) (variant.Value, bool) {
	var v variant.Value
	var err error
	switch op {
	case OpAdd:
		v, err = variant.Add(l, r)
	case OpSub:
		v, err = variant.Sub(l, r)
	case OpMul:
		v, err = variant.Mul(l, r)
	case OpDiv:
		v, err = variant.Div(l, r)
	case OpIDiv:
		v, err = variant.IDiv(l, r)
	case OpMod:
		v, err = variant.Mod(l, r)
	case OpEq:
		return variant.Bool(variant.Compare(l, r) == 0), true
	case OpNe:
		return variant.Bool(variant.Compare(l, r) != 0), true
	case OpLt:
		return variant.Bool(variant.Compare(l, r) < 0), true
	case OpLe:
		return variant.Bool(variant.Compare(l, r) <= 0), true
	case OpGt:
		return variant.Bool(variant.Compare(l, r) > 0), true
	case OpGe:
		return variant.Bool(variant.Compare(l, r) >= 0), true
	case OpConcat:
		if l.Kind() == variant.KindString && r.Kind() == variant.KindString {
			return variant.String(l.AsString() + r.AsString()), true
		}
		return variant.Null, false
	default:
		return variant.Null, false
	}
	if err != nil {
		return variant.Null, false // leave runtime errors to execution
	}
	return v, true
}

// dropDeadLets removes the let clauses of f whose variable no later clause
// and not the return reads. It walks the clauses back to front, so a let
// read only by a dead let is dead too.
func dropDeadLets(f *FLWOR) Expr {
	cs := f.Clauses
	for i := len(cs) - 1; i >= 0; i-- {
		let, ok := cs[i].(*LetClause)
		if !ok || chainUsesVar(cs[i+1:], f.Return, let.Var) {
			continue
		}
		if len(cs) == len(f.Clauses) {
			cs = slices.Clone(cs)
		}
		cs = slices.Delete(cs, i, i+1)
	}
	if len(cs) == len(f.Clauses) {
		return f
	}
	out := *f
	out.Clauses = cs
	return &out
}
