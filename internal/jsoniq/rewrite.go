package jsoniq

import (
	"jsonpark/internal/variant"
)

// Rewrite applies back-end-agnostic expression-tree optimizations, mirroring
// RumbleDB's rewrite phase (§III-A2): constant folding of arithmetic, logic
// and conditionals over literals, and elimination of let-bound variables
// that are never referenced (dead code elimination).
func Rewrite(e Expr) Expr {
	e = foldConstants(e)
	e = eliminateDeadLets(e)
	return e
}

func foldConstants(e Expr) Expr {
	switch x := e.(type) {
	case *Literal, *VarRef, *Collection:
		return e
	case *FieldAccess:
		x.Base = foldConstants(x.Base)
		return x
	case *ArrayUnbox:
		x.Base = foldConstants(x.Base)
		return x
	case *ArrayIndex:
		x.Base = foldConstants(x.Base)
		x.Index = foldConstants(x.Index)
		return x
	case *ObjectCtor:
		for i := range x.Values {
			x.Values[i] = foldConstants(x.Values[i])
		}
		return x
	case *ArrayCtor:
		for i := range x.Items {
			x.Items[i] = foldConstants(x.Items[i])
		}
		return x
	case *Unary:
		x.Operand = foldConstants(x.Operand)
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
		return x
	case *Binary:
		x.Left = foldConstants(x.Left)
		x.Right = foldConstants(x.Right)
		l, lok := x.Left.(*Literal)
		r, rok := x.Right.(*Literal)
		if lok && rok {
			if v, ok := foldBinary(x.Op, l.Value, r.Value); ok {
				return &Literal{pos: x.pos, Value: v}
			}
		}
		// Logical short circuits with one literal side.
		if x.Op == OpAnd {
			if lok && !l.Value.Truthy() {
				return &Literal{pos: x.pos, Value: variant.Bool(false)}
			}
			if lok && l.Value.Truthy() {
				return x.Right
			}
			if rok {
				if !r.Value.Truthy() {
					return &Literal{pos: x.pos, Value: variant.Bool(false)}
				}
				return x.Left
			}
		}
		if x.Op == OpOr {
			if lok && l.Value.Truthy() {
				return &Literal{pos: x.pos, Value: variant.Bool(true)}
			}
			if lok && !l.Value.Truthy() {
				return x.Right
			}
			if rok {
				if r.Value.Truthy() {
					return &Literal{pos: x.pos, Value: variant.Bool(true)}
				}
				return x.Left
			}
		}
		return x
	case *If:
		x.Cond = foldConstants(x.Cond)
		x.Then = foldConstants(x.Then)
		x.Else = foldConstants(x.Else)
		if lit, ok := x.Cond.(*Literal); ok {
			if lit.Value.Truthy() {
				return x.Then
			}
			return x.Else
		}
		return x
	case *FunctionCall:
		for i := range x.Args {
			x.Args[i] = foldConstants(x.Args[i])
		}
		return x
	case *FLWOR:
		for _, c := range x.Clauses {
			foldClause(c)
		}
		x.Return = foldConstants(x.Return)
		return x
	}
	return e
}

func foldClause(c Clause) {
	switch cl := c.(type) {
	case *ForClause:
		cl.In = foldConstants(cl.In)
	case *LetClause:
		cl.Expr = foldConstants(cl.Expr)
	case *WhereClause:
		cl.Cond = foldConstants(cl.Cond)
	case *GroupByClause:
		for i := range cl.Keys {
			if cl.Keys[i].Expr != nil {
				cl.Keys[i].Expr = foldConstants(cl.Keys[i].Expr)
			}
		}
	case *OrderByClause:
		for i := range cl.Keys {
			cl.Keys[i].Expr = foldConstants(cl.Keys[i].Expr)
		}
	}
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

// eliminateDeadLets removes let clauses whose variable is never referenced
// by later clauses or the return expression.
func eliminateDeadLets(e Expr) Expr {
	switch x := e.(type) {
	case *FLWOR:
		for _, c := range x.Clauses {
			rewriteClauseChildren(c)
		}
		x.Return = eliminateDeadLets(x.Return)
		kept := x.Clauses[:0]
		for i, c := range x.Clauses {
			let, ok := c.(*LetClause)
			if !ok {
				kept = append(kept, c)
				continue
			}
			used := ExprUsesVar(x.Return, let.Var)
			for _, later := range x.Clauses[i+1:] {
				if ClauseUsesVar(later, let.Var) {
					used = true
					break
				}
			}
			if used {
				kept = append(kept, c)
			}
		}
		x.Clauses = kept
		return x
	case *FieldAccess:
		x.Base = eliminateDeadLets(x.Base)
	case *ArrayUnbox:
		x.Base = eliminateDeadLets(x.Base)
	case *ArrayIndex:
		x.Base = eliminateDeadLets(x.Base)
		x.Index = eliminateDeadLets(x.Index)
	case *ObjectCtor:
		for i := range x.Values {
			x.Values[i] = eliminateDeadLets(x.Values[i])
		}
	case *ArrayCtor:
		for i := range x.Items {
			x.Items[i] = eliminateDeadLets(x.Items[i])
		}
	case *Unary:
		x.Operand = eliminateDeadLets(x.Operand)
	case *Binary:
		x.Left = eliminateDeadLets(x.Left)
		x.Right = eliminateDeadLets(x.Right)
	case *If:
		x.Cond = eliminateDeadLets(x.Cond)
		x.Then = eliminateDeadLets(x.Then)
		x.Else = eliminateDeadLets(x.Else)
	case *FunctionCall:
		for i := range x.Args {
			x.Args[i] = eliminateDeadLets(x.Args[i])
		}
	}
	return e
}

func rewriteClauseChildren(c Clause) {
	switch cl := c.(type) {
	case *ForClause:
		cl.In = eliminateDeadLets(cl.In)
	case *LetClause:
		cl.Expr = eliminateDeadLets(cl.Expr)
	case *WhereClause:
		cl.Cond = eliminateDeadLets(cl.Cond)
	case *GroupByClause:
		for i := range cl.Keys {
			if cl.Keys[i].Expr != nil {
				cl.Keys[i].Expr = eliminateDeadLets(cl.Keys[i].Expr)
			}
		}
	case *OrderByClause:
		for i := range cl.Keys {
			cl.Keys[i].Expr = eliminateDeadLets(cl.Keys[i].Expr)
		}
	}
}

// ClauseUsesVar reports whether clause c references the variable name: in
// its input, bound, condition or key expressions, or as a group-by key that
// regroups an existing variable.
func ClauseUsesVar(c Clause, name string) bool {
	switch cl := c.(type) {
	case *ForClause:
		return ExprUsesVar(cl.In, name)
	case *LetClause:
		return ExprUsesVar(cl.Expr, name)
	case *WhereClause:
		return ExprUsesVar(cl.Cond, name)
	case *GroupByClause:
		for _, k := range cl.Keys {
			if k.Expr != nil && ExprUsesVar(k.Expr, name) {
				return true
			}
			if k.Expr == nil && k.Var == name {
				return true
			}
		}
	case *OrderByClause:
		for _, k := range cl.Keys {
			if ExprUsesVar(k.Expr, name) {
				return true
			}
		}
	}
	return false
}

// ExprUsesVar reports whether expression e references the variable name.
func ExprUsesVar(e Expr, name string) bool {
	found := false
	Walk(e, func(n Expr) bool {
		if v, ok := n.(*VarRef); ok && v.Name == name {
			found = true
			return false
		}
		return !found
	})
	return found
}

// Walk traverses the expression tree in pre-order, descending into a node's
// children only while fn returns true. FLWOR clause subexpressions are
// visited as children of the FLWOR node.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	switch x := e.(type) {
	case *FieldAccess:
		Walk(x.Base, fn)
	case *ArrayUnbox:
		Walk(x.Base, fn)
	case *ArrayIndex:
		Walk(x.Base, fn)
		Walk(x.Index, fn)
	case *ObjectCtor:
		for _, v := range x.Values {
			Walk(v, fn)
		}
	case *ArrayCtor:
		for _, v := range x.Items {
			Walk(v, fn)
		}
	case *Unary:
		Walk(x.Operand, fn)
	case *Binary:
		Walk(x.Left, fn)
		Walk(x.Right, fn)
	case *If:
		Walk(x.Cond, fn)
		Walk(x.Then, fn)
		Walk(x.Else, fn)
	case *FunctionCall:
		for _, a := range x.Args {
			Walk(a, fn)
		}
	case *FLWOR:
		for _, c := range x.Clauses {
			switch cl := c.(type) {
			case *ForClause:
				Walk(cl.In, fn)
			case *LetClause:
				Walk(cl.Expr, fn)
			case *WhereClause:
				Walk(cl.Cond, fn)
			case *GroupByClause:
				for _, k := range cl.Keys {
					if k.Expr != nil {
						Walk(k.Expr, fn)
					}
				}
			case *OrderByClause:
				for _, k := range cl.Keys {
					Walk(k.Expr, fn)
				}
			}
		}
		Walk(x.Return, fn)
	}
}
