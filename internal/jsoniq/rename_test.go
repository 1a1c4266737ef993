package jsoniq

import (
	"maps"
	"strings"
	"testing"
)

func TestRenameShadowed(t *testing.T) {
	cases := map[string]struct{ src, want string }{
		"nested-for-rebinds-outer": {
			`for $e in collection("d") let $s := sum(for $e in $e.xs[] return $e) return {"s": $s, "e": $e}`,
			`for $e in collection("d") let $s := sum(for $e#1 in $e.xs[] return $e#1) return {"s": $s, "e": $e}`},
		"let-rebinds-collection-variable": {
			`for $e in collection("d") let $e := {"id": 7} return $e.id`,
			`for $e in collection("d") let $e#1 := {"id": 7} return $e#1.id`},
		"siblings-share-a-name": {
			`for $e in collection("d") return [count(for $x in $e.a[] return $x), count(for $x in $e.b[] return $x)]`,
			""},
		"position-variable": {
			`for $e in collection("d") for $i at $e in $e.a[] return $e`,
			`for $e in collection("d") for $i at $e#1 in $e.a[] return $e#1`},
		"regroup-keeps-its-name": {
			`for $e in collection("d") let $k := $e.g group by $k return $k`,
			""},
		"regroup-follows-a-rename": {
			`for $k in collection("d") let $k := $k.g group by $k return $k`,
			`for $k in collection("d") let $k#1 := $k.g group by $k#1 return $k#1`},
		"group-key-with-expression": {
			`for $e in collection("d") group by $e := $e.g return $e`,
			`for $e in collection("d") group by $e#1 := $e.g return $e#1`},
		"fresh-name-avoids-used-ones": {
			`for $e in collection("d") let $e := 1 let $e := $e + 1 return $e`,
			`for $e in collection("d") let $e#1 := 1 let $e#2 := ($e#1 + 1) return $e#2`},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			in := MustParse(c.src)
			before := Format(in)
			out := RenameShadowed(in)
			if Format(in) != before {
				t.Fatalf("RenameShadowed changed its input")
			}
			if c.want == "" {
				if out != in {
					t.Fatalf("nothing shadows, yet got a new tree: %s", Format(out))
				}
				return
			}
			if got, want := Format(out), Format(mustParseRenamed(t, c.want)); got != want {
				t.Fatalf("got  %s\nwant %s", got, want)
			}
			if v := Shadowed(out); v != "" {
				t.Fatalf("$%s still shadows in %s", v, Format(out))
			}
		})
	}
}

// mustParseRenamed parses src after spelling each fresh name's '#' as a
// name character the lexer accepts, then restores it.
func mustParseRenamed(t *testing.T, src string) Expr {
	t.Helper()
	e, err := Parse(strings.ReplaceAll(src, "#", "__H__"))
	if err != nil {
		t.Fatal(err)
	}
	return MapNames(e, func(v string) string { return strings.ReplaceAll(v, "__H__", "#") })
}

// Shadowed returns the first variable a clause of e binds while a binding of
// the same name is around it (a key without an expression regroups and does
// not count), or "".
func Shadowed(e Expr) string {
	var found string
	var visit func(e Expr, bound map[string]bool) Expr
	visit = func(e Expr, bound map[string]bool) Expr {
		f, ok := e.(*FLWOR)
		if !ok {
			return MapChildren(e, func(c Expr) Expr { return visit(c, bound) })
		}
		bound = maps.Clone(bound)
		if bound == nil {
			bound = map[string]bool{}
		}
		for _, c := range f.Clauses {
			MapClause(c, func(x Expr) Expr { return visit(x, bound) })
			regroups := map[string]bool{}
			if gb, ok := c.(*GroupByClause); ok {
				for _, k := range gb.Keys {
					if k.Expr == nil {
						regroups[k.Var] = true
					}
				}
			}
			MapBound(c, func(v string) string {
				if bound[v] && !regroups[v] && found == "" {
					found = v
				}
				bound[v] = true
				return v
			})
		}
		visit(f.Return, bound)
		return e
	}
	visit(e, nil)
	return found
}

// MapNames returns e with every variable name, bound or referenced, replaced
// by fn(name).
func MapNames(e Expr, fn func(string) string) Expr {
	switch x := e.(type) {
	case *VarRef:
		out := *x
		out.Name = fn(x.Name)
		return &out
	case *FLWOR:
		out := *x
		out.Clauses = make([]Clause, len(x.Clauses))
		for i, c := range x.Clauses {
			c = MapClause(c, func(y Expr) Expr { return MapNames(y, fn) })
			if gb, ok := c.(*GroupByClause); ok {
				keys := make([]GroupKey, len(gb.Keys))
				for j, k := range gb.Keys {
					k.Var = fn(k.Var)
					keys[j] = k
				}
				g := *gb
				g.Keys = keys
				out.Clauses[i] = &g
				continue
			}
			out.Clauses[i] = MapBound(c, fn)
		}
		out.Return = MapNames(x.Return, fn)
		return &out
	}
	return MapChildren(e, func(c Expr) Expr { return MapNames(c, fn) })
}

// Shared returns the first expression node Walk reaches twice in e, or nil.
func Shared(e Expr) Expr {
	seen := map[Expr]bool{}
	var found Expr
	Walk(e, func(n Expr) bool {
		if found == nil && seen[n] {
			found = n
		}
		seen[n] = true
		return found == nil
	})
	return found
}
