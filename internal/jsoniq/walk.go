package jsoniq

import "fmt"

// Walk visits e and its subexpressions in pre-order, each node's children in
// the order MapChildren maps them; when fn returns false the node's children
// are skipped. A FLWOR's children are its clauses' expressions, clause by
// clause, then its return. Walk ignores scope: use ExprUsesVar to ask
// whether an expression reads a variable.
func Walk(e Expr, fn func(Expr) bool) {
	if e == nil || !fn(e) {
		return
	}
	MapChildren(e, func(c Expr) Expr {
		Walk(c, fn)
		return c
	})
}

// MapChildren returns e with each direct child c replaced by fn(c), called
// in order on: the Base of a FieldAccess, ArrayUnbox or ArrayIndex, then an
// ArrayIndex's Index; an ObjectCtor's values; an ArrayCtor's items; a
// Binary's operands; a Unary's operand; an If's condition, then and else
// branches; a FunctionCall's arguments; a FLWOR's clause expressions, clause
// by clause (MapClause), then its return. Literal, VarRef and Collection
// have no children. Nodes are never assigned into: when fn returns every
// child unchanged MapChildren returns e itself and allocates nothing,
// otherwise a copy of e that shares the unchanged children. Every rewrite
// of the expression tree recurses through MapChildren or Walk, so these are
// where a new kind of expression declares its children (TestJSONiqTraversal
// checks they agree).
func MapChildren(e Expr, fn func(Expr) Expr) Expr {
	switch x := e.(type) {
	case nil, *Literal, *VarRef, *Collection:
	case *FieldAccess:
		if b := fn(x.Base); b != x.Base {
			out := *x
			out.Base = b
			return &out
		}
	case *ArrayUnbox:
		if b := fn(x.Base); b != x.Base {
			out := *x
			out.Base = b
			return &out
		}
	case *ArrayIndex:
		if b, i := fn(x.Base), fn(x.Index); b != x.Base || i != x.Index {
			out := *x
			out.Base, out.Index = b, i
			return &out
		}
	case *ObjectCtor:
		if vs, changed := mapSlice(x.Values, fn); changed {
			out := *x
			out.Values = vs
			return &out
		}
	case *ArrayCtor:
		if items, changed := mapSlice(x.Items, fn); changed {
			out := *x
			out.Items = items
			return &out
		}
	case *Binary:
		if l, r := fn(x.Left), fn(x.Right); l != x.Left || r != x.Right {
			out := *x
			out.Left, out.Right = l, r
			return &out
		}
	case *Unary:
		if o := fn(x.Operand); o != x.Operand {
			out := *x
			out.Operand = o
			return &out
		}
	case *If:
		if c, t, f := fn(x.Cond), fn(x.Then), fn(x.Else); c != x.Cond || t != x.Then || f != x.Else {
			out := *x
			out.Cond, out.Then, out.Else = c, t, f
			return &out
		}
	case *FunctionCall:
		if args, changed := mapSlice(x.Args, fn); changed {
			out := *x
			out.Args = args
			return &out
		}
	case *FLWOR:
		cs, changed := mapSlice(x.Clauses, func(c Clause) Clause { return MapClause(c, fn) })
		if r := fn(x.Return); changed || r != x.Return {
			out := *x
			out.Clauses, out.Return = cs, r
			return &out
		}
	default:
		panic(fmt.Sprintf("jsoniq: unknown expression node %T", e))
	}
	return e
}

// MapClause returns c with each of its expressions e replaced by fn(e), in
// order: a for clause's input, a let clause's bound expression, a where
// condition, each group-by key's expression (a key without one has none),
// each order-by key. A count clause has none. Like MapChildren it returns c
// itself, allocating nothing, when fn returns every expression unchanged.
func MapClause(c Clause, fn func(Expr) Expr) Clause {
	switch x := c.(type) {
	case *ForClause:
		if in := fn(x.In); in != x.In {
			out := *x
			out.In = in
			return &out
		}
	case *LetClause:
		if e := fn(x.Expr); e != x.Expr {
			out := *x
			out.Expr = e
			return &out
		}
	case *WhereClause:
		if cond := fn(x.Cond); cond != x.Cond {
			out := *x
			out.Cond = cond
			return &out
		}
	case *GroupByClause:
		keys, changed := mapSlice(x.Keys, func(k GroupKey) GroupKey {
			if k.Expr != nil {
				k.Expr = fn(k.Expr)
			}
			return k
		})
		if changed {
			out := *x
			out.Keys = keys
			return &out
		}
	case *OrderByClause:
		keys, changed := mapSlice(x.Keys, func(k OrderKey) OrderKey { k.Expr = fn(k.Expr); return k })
		if changed {
			out := *x
			out.Keys = keys
			return &out
		}
	case *CountClause:
	default:
		panic(fmt.Sprintf("jsoniq: unknown clause node %T", c))
	}
	return c
}

// MapBound returns c with each variable it binds renamed to fn(name), in
// order: a for clause's variable then its position variable, a let or count
// clause's variable, each group-by key's variable. It is the scope rule
// every rewrite over a FLWOR keeps: the names a clause binds shadow an outer
// binding of the same name in the later clauses and the return of its
// FLWOR, and nowhere else; the clause's own expressions still read the outer
// binding. A key without an expression (`group by $k`) reads the variable it
// binds, so a renamed one becomes `group by $new := $k`. MapBound returns c
// itself, allocating nothing, when fn returns every name unchanged.
func MapBound(c Clause, fn func(string) string) Clause {
	switch x := c.(type) {
	case *ForClause:
		v, p := fn(x.Var), x.PosVar
		if p != "" {
			p = fn(p)
		}
		if v != x.Var || p != x.PosVar {
			out := *x
			out.Var, out.PosVar = v, p
			return &out
		}
	case *LetClause:
		if v := fn(x.Var); v != x.Var {
			out := *x
			out.Var = v
			return &out
		}
	case *CountClause:
		if v := fn(x.Var); v != x.Var {
			out := *x
			out.Var = v
			return &out
		}
	case *GroupByClause:
		keys, changed := mapSlice(x.Keys, func(k GroupKey) GroupKey {
			if v := fn(k.Var); v != k.Var {
				if k.Expr == nil {
					k.Expr = &VarRef{Name: k.Var}
				}
				k.Var = v
			}
			return k
		})
		if changed {
			out := *x
			out.Keys = keys
			return &out
		}
	case *WhereClause, *OrderByClause:
	default:
		panic(fmt.Sprintf("jsoniq: unknown clause node %T", c))
	}
	return c
}

// binds reports whether clause c binds the variable name (MapBound).
func binds(c Clause, name string) bool {
	found := false
	MapBound(c, func(v string) string {
		found = found || v == name
		return v
	})
	return found
}

// ExprUsesVar reports whether e reads the variable name where it is free:
// inside a FLWOR, the clauses after one that binds name, and its return,
// read that binding instead (MapBound).
func ExprUsesVar(e Expr, name string) bool {
	used := false
	var visit func(Expr) Expr
	visit = func(n Expr) Expr {
		switch x := n.(type) {
		case *VarRef:
			used = used || x.Name == name
		case *FLWOR:
			used = used || chainUsesVar(x.Clauses, x.Return, name)
		default:
			if !used {
				MapChildren(n, visit)
			}
		}
		return n
	}
	visit(e)
	return used
}

// clauseUsesVar reports whether clause c reads the variable name: in one of
// its expressions, or as a group-by key that regroups it (`group by $name`).
func clauseUsesVar(c Clause, name string) bool {
	if gb, ok := c.(*GroupByClause); ok {
		for _, k := range gb.Keys {
			if k.Expr == nil && k.Var == name {
				return true
			}
		}
	}
	used := false
	MapClause(c, func(e Expr) Expr {
		used = used || ExprUsesVar(e, name)
		return e
	})
	return used
}

// chainUsesVar reports whether the clauses cs followed by ret read the
// variable name before a clause of cs rebinds it.
func chainUsesVar(cs []Clause, ret Expr, name string) bool {
	for _, c := range cs {
		if clauseUsesVar(c, name) {
			return true
		}
		if binds(c, name) {
			return false
		}
	}
	return ExprUsesVar(ret, name)
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
