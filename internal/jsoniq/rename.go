package jsoniq

import (
	"slices"
	"strconv"
)

// RenameShadowed returns e with every binding that shadows a binding around
// it (MapBound's scope rule: the earlier clauses of its own FLWOR and the
// clauses of the FLWORs it sits in) renamed to a fresh name, with the
// references it governs. Afterwards no two bindings in scope at one point
// share a name, so a back-end can key its state by variable name. A
// group-by key without an expression (`group by $k`) regroups the binding
// it reads and is not renamed itself. Fresh names are the old name, '#' and
// a number, which no JSONiq variable can spell. Like Rewrite it never
// modifies e, and returns e itself when nothing shadows.
func RenameShadowed(e Expr) Expr {
	r := &renamer{root: e}
	return r.expr(e)
}

// renamer carries the scope at the node being renamed — the names bound
// around it and the renames in force there, innermost last — the names in
// use, collected on the first rename, and the counter fresh names are
// numbered by.
type renamer struct {
	bound []string
	env   [][2]string // {old, new}
	used  map[string]bool
	root  Expr
	n     int
}

func (r *renamer) expr(e Expr) Expr {
	switch x := e.(type) {
	case *VarRef:
		if nv := r.lookup(x.Name); nv != x.Name {
			out := *x
			out.Name = nv
			return &out
		}
		return e
	case *FLWOR:
		nb, ne := len(r.bound), len(r.env)
		cs, changed := mapSlice(x.Clauses, func(c Clause) Clause {
			c = MapClause(c, r.expr) // a clause's own expressions see the bindings around it
			var regroups []string
			if gb, ok := c.(*GroupByClause); ok {
				c, regroups = r.regroup(gb)
			}
			return MapBound(c, func(v string) string {
				if slices.Contains(r.bound, v) && !slices.Contains(regroups, v) {
					nv := r.fresh(v)
					r.env = append(r.env, [2]string{v, nv})
					v = nv
				}
				r.bound = append(r.bound, v)
				return v
			})
		})
		ret := r.expr(x.Return)
		r.bound, r.env = r.bound[:nb], r.env[:ne]
		if changed || ret != x.Return {
			out := *x
			out.Clauses, out.Return = cs, ret
			return &out
		}
		return e
	}
	return MapChildren(e, r.expr)
}

// lookup returns the name a reference to v reads in the current scope.
func (r *renamer) lookup(v string) string {
	for i := len(r.env) - 1; i >= 0; i-- {
		if r.env[i][0] == v {
			return r.env[i][1]
		}
	}
	return v
}

// regroup points each expression-less key of gb at the binding it reads,
// renamed or not, and returns the names those keys bind.
func (r *renamer) regroup(gb *GroupByClause) (Clause, []string) {
	var regroups []string
	keys, changed := mapSlice(gb.Keys, func(k GroupKey) GroupKey {
		if k.Expr == nil {
			k.Var = r.lookup(k.Var)
			regroups = append(regroups, k.Var)
		}
		return k
	})
	if !changed {
		return gb, regroups
	}
	out := *gb
	out.Keys = keys
	return &out, regroups
}

// fresh returns a name for a renamed binding of v that occurs nowhere in the
// query and was not handed out before.
func (r *renamer) fresh(v string) string {
	if r.used == nil {
		r.used = make(map[string]bool)
		Walk(r.root, func(n Expr) bool {
			switch x := n.(type) {
			case *VarRef:
				r.used[x.Name] = true
			case *FLWOR:
				for _, c := range x.Clauses {
					MapBound(c, func(name string) string { r.used[name] = true; return name })
				}
			}
			return true
		})
	}
	for {
		r.n++
		if nv := v + "#" + strconv.Itoa(r.n); !r.used[nv] {
			r.used[nv] = true
			return nv
		}
	}
}
