package jsoniq

import (
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"

	"jsonpark/internal/variant"
)

func vr(name string) *VarRef          { return &VarRef{Name: name} }
func num(i int64) *Literal            { return &Literal{Value: variant.Int(i)} }
func fa(b Expr, f string) Expr        { return &FieldAccess{Base: b, Field: f} }
func bin(op BinaryOp, l, r Expr) Expr { return &Binary{Op: op, Left: l, Right: r} }

// traversalCases has a row for every Expr kind and every Clause kind, named
// by the kind before any "/"; a clause row is a FLWOR holding that clause.
// Each row is built so that the variable $x sits under some children and
// not others. walk is the pre-order Walk visits: literals, variables and
// collections by their JSONiq, inner nodes by kind.
var traversalCases = map[string]struct {
	e    Expr
	walk string
}{
	"Literal":    {num(1), "1"},
	"VarRef":     {vr("x"), "$x"},
	"Collection": {&Collection{Name: "c"}, `collection("c")`},
	"FieldAccess": {fa(fa(vr("x"), "a"), "b"),
		"FieldAccess FieldAccess $x"},
	"ArrayUnbox": {&ArrayUnbox{Base: fa(vr("x"), "a")}, "ArrayUnbox FieldAccess $x"},
	"ArrayIndex": {&ArrayIndex{Base: vr("a"), Index: bin(OpAdd, vr("x"), num(1))},
		"ArrayIndex $a Binary $x 1"},
	"ObjectCtor": {&ObjectCtor{Keys: []string{"k", "l", "m"}, Values: []Expr{vr("a"), vr("x"), vr("b")}},
		"ObjectCtor $a $x $b"},
	"ArrayCtor": {&ArrayCtor{Items: []Expr{vr("x"), fa(vr("a"), "f")}},
		"ArrayCtor $x FieldAccess $a"},
	"Binary": {bin(OpMul, bin(OpAdd, vr("a"), vr("b")), bin(OpSub, vr("x"), num(2))),
		"Binary Binary $a $b Binary $x 2"},
	"Unary": {&Unary{Op: "-", Operand: vr("x")}, "Unary $x"},
	"If": {&If{Cond: vr("a"), Then: vr("x"), Else: num(0)},
		"If $a $x 0"},
	"FunctionCall": {&FunctionCall{Name: "atan2", Args: []Expr{vr("a"), fa(vr("x"), "y")}},
		"FunctionCall $a FieldAccess $x"},
	"FLWOR": {&FLWOR{Clauses: []Clause{&ForClause{Var: "e", In: &Collection{Name: "c"}}}, Return: vr("x")},
		`FLWOR collection("c") $x`},
	"ForClause": {&FLWOR{Clauses: []Clause{
		&ForClause{Var: "e", In: &Collection{Name: "c"}},
		&ForClause{Var: "j", PosVar: "i", In: &ArrayUnbox{Base: fa(vr("x"), "jets")}, AllowEmpty: true},
	}, Return: vr("j")},
		`FLWOR collection("c") ArrayUnbox FieldAccess $x $j`},
	"LetClause": {&FLWOR{Clauses: []Clause{
		&ForClause{Var: "e", In: &Collection{Name: "c"}},
		&LetClause{Var: "v", Expr: fa(vr("x"), "v")},
	}, Return: vr("v")},
		`FLWOR collection("c") FieldAccess $x $v`},
	"WhereClause": {&FLWOR{Clauses: []Clause{
		&ForClause{Var: "e", In: &Collection{Name: "c"}},
		&WhereClause{Cond: bin(OpGt, vr("x"), num(1))},
	}, Return: vr("e")},
		`FLWOR collection("c") Binary $x 1 $e`},
	"GroupByClause": {&FLWOR{Clauses: []Clause{
		&ForClause{Var: "e", In: &Collection{Name: "c"}},
		&GroupByClause{Keys: []GroupKey{{Var: "e"}, {Var: "k", Expr: fa(vr("x"), "g")}, {Var: "l", Expr: vr("a")}}},
	}, Return: vr("k")},
		`FLWOR collection("c") FieldAccess $x $a $k`},
	"OrderByClause": {&FLWOR{Clauses: []Clause{
		&ForClause{Var: "e", In: &Collection{Name: "c"}},
		&OrderByClause{Keys: []OrderKey{{Expr: vr("a")}, {Expr: vr("x"), Descending: true}}},
	}, Return: vr("e")},
		`FLWOR collection("c") $a $x $e`},
	"CountClause": {&FLWOR{Clauses: []Clause{
		&ForClause{Var: "e", In: vr("x")},
		&CountClause{Var: "n"},
	}, Return: vr("n")},
		`FLWOR $x $n`},
}

func traversalLabel(e Expr) string {
	switch e.(type) {
	case *Literal, *VarRef, *Collection:
		return Format(e)
	}
	return kindOf(e)
}

func kindOf(n any) string { return strings.TrimPrefix(fmt.Sprintf("%T", n), "*jsoniq.") }

func preorder(e Expr) (nodes []Expr, labels []string) {
	Walk(e, func(n Expr) bool {
		nodes = append(nodes, n)
		labels = append(labels, traversalLabel(n))
		return true
	})
	return nodes, labels
}

func mentionsX(e Expr) bool {
	_, labels := preorder(e)
	return slices.Contains(labels, "$x")
}

func clauseMentionsX(c Clause) bool {
	found := false
	MapClause(c, func(e Expr) Expr { found = found || mentionsX(e); return e })
	return found
}

// TestJSONiqTraversal checks Walk's pre-order and that MapChildren (with
// MapClause) rebuilds only the path to a changed child, sharing every other
// subtree and clause, returns its argument itself, allocating nothing, when
// no child changes, and never modifies its input; then that Rewrite, built
// on them, leaves its input alone and drops a chain of dead lets in one
// pass.
func TestJSONiqTraversal(t *testing.T) {
	// A new kind of node cannot skip these checks: each declared kind needs
	// a row.
	covered := map[string]bool{}
	for _, c := range traversalCases {
		covered[kindOf(c.e)] = true
		if f, ok := c.e.(*FLWOR); ok {
			for _, cl := range f.Clauses {
				covered[kindOf(cl)] = true
			}
		}
	}
	kinds := declaredNodeKinds(t)
	for _, kind := range kinds {
		if !covered[kind] {
			t.Errorf("node kind %s has no row in traversalCases", kind)
		}
	}
	if len(kinds) < 19 {
		t.Fatalf("found %d exprNode/clauseNode methods in ast.go, want at least 19", len(kinds))
	}

	var swap func(Expr) Expr // rewrites the variable $x to $y
	swap = func(e Expr) Expr {
		if v, ok := e.(*VarRef); ok && v.Name == "x" {
			return vr("y")
		}
		return MapChildren(e, swap)
	}
	id := func(e Expr) Expr { return e }
	for name, c := range traversalCases {
		t.Run(name, func(t *testing.T) {
			kind, _, _ := strings.Cut(name, "/")
			if !rowHolds(c.e, kind) {
				t.Fatalf("row %s holds no %s", name, kind)
			}
			before := Format(c.e)
			nodes, labels := preorder(c.e)
			if got := strings.Join(labels, " "); got != c.walk {
				t.Errorf("Walk = %q, want %q", got, c.walk)
			}

			out := swap(c.e)
			if Format(c.e) != before {
				t.Errorf("rewrite changed its input: %s, was %s", Format(c.e), before)
			}
			outNodes, outLabels := preorder(out)
			if got, want := strings.Join(outLabels, " "), strings.ReplaceAll(c.walk, "$x", "$y"); got != want {
				t.Errorf("rewritten Walk = %q, want %q", got, want)
			}
			for i, n := range nodes {
				if shared := outNodes[i] == n; shared == mentionsX(n) {
					t.Errorf("node %d (%s): shared=%v, want shared exactly when it does not mention $x", i, Format(n), shared)
				}
				if f, ok := n.(*FLWOR); ok {
					for j, cl := range f.Clauses {
						if shared := outNodes[i].(*FLWOR).Clauses[j] == cl; shared == clauseMentionsX(cl) {
							t.Errorf("clause %d (%s): shared=%v, want shared exactly when it does not mention $x", j, cl.Kind(), shared)
						}
					}
				}
			}

			if MapChildren(c.e, id) != c.e {
				t.Errorf("MapChildren(identity) returned a new node")
			}
			if n := testing.AllocsPerRun(100, func() { MapChildren(c.e, id) }); n != 0 {
				t.Errorf("MapChildren(identity) allocates %v times", n)
			}
			if n := testing.AllocsPerRun(100, func() { Walk(c.e, func(Expr) bool { return true }) }); n != 0 {
				t.Errorf("Walk allocates %v times", n)
			}
			if f, ok := c.e.(*FLWOR); ok {
				for _, cl := range f.Clauses {
					keep := func(v string) string { return v }
					if MapClause(cl, id) != cl || MapBound(cl, keep) != cl {
						t.Errorf("MapClause or MapBound (identity) rebuilt a %s", cl.Kind())
					}
				}
			}

			Rewrite(c.e)
			if Format(c.e) != before {
				t.Errorf("Rewrite changed its input: %s, was %s", Format(c.e), before)
			}
		})
	}

	t.Run("Rewrite/input", func(t *testing.T) {
		e := MustParse(`for $e in collection("c") return (1 + 2) * $e.x`)
		before := Format(e)
		if got, want := Format(Rewrite(e)), `(for $e in collection("c") return (3 * $e.x))`; got != want {
			t.Errorf("Rewrite = %s, want %s", got, want)
		}
		if Format(e) != before {
			t.Errorf("Rewrite changed its input to %s, was %s", Format(e), before)
		}
		done := Rewrite(e)
		if Rewrite(done) != done {
			t.Errorf("Rewrite of a rewritten tree returned a new node")
		}
	})
	t.Run("Rewrite/dead-let-chain", func(t *testing.T) {
		e := MustParse(`for $e in collection("c") let $a := $e.x let $b := $a return $e.y`)
		if got, want := Format(Rewrite(e)), `(for $e in collection("c") return $e.y)`; got != want {
			t.Errorf("one Rewrite = %s, want %s", got, want)
		}
	})
}

// rowHolds reports whether e is a node of the kind, or a FLWOR with a clause
// of it.
func rowHolds(e Expr, kind string) bool {
	if kindOf(e) == kind {
		return true
	}
	f, ok := e.(*FLWOR)
	return ok && slices.ContainsFunc(f.Clauses, func(c Clause) bool { return kindOf(c) == kind })
}

// declaredNodeKinds parses ast.go and returns the types that declare an
// exprNode or clauseNode method.
func declaredNodeKinds(t *testing.T) []string {
	f, err := goparser.ParseFile(token.NewFileSet(), "ast.go", nil, goparser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || (fd.Name.Name != "exprNode" && fd.Name.Name != "clauseNode") {
			continue
		}
		typ := fd.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		kinds = append(kinds, typ.(*ast.Ident).Name)
	}
	return kinds
}

// TestExprUsesVarFollowsScope checks the scope rule: a clause's bindings
// shadow a name for the later clauses and the return of its FLWOR only.
func TestExprUsesVarFollowsScope(t *testing.T) {
	cases := map[string]bool{
		`$x + 1`:                                           true,
		`for $x in $y[] return $x`:                         false,
		`for $x in $x[] return $x`:                         true, // the input reads the outer $x
		`for $e in $y[] let $x := 1 return $x`:             false,
		`for $e in $y[] where $x return $e`:                true,
		`for $e in $y[] return (for $x in $e[] return $x)`: false,
		`for $e in $y[] return (for $z in $x[] return $z)`: true,
		`for $e in $y[] group by $x return $e`:             true, // regroups the outer $x
		`for $e in $y[] group by $k := $e return $x`:       true,
		`for $e in $y[] group by $x := $e return $x`:       false,
		`for $e at $x in $y[] return $x`:                   false,
		`for $e in $y[] count $x return $x`:                false,
		`for $e in $y[] order by $x return $e`:             true,
	}
	for src, want := range cases {
		if got := ExprUsesVar(MustParse(src), "x"); got != want {
			t.Errorf("ExprUsesVar(%s, x) = %v, want %v", src, got, want)
		}
	}
}
