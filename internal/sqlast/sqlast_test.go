package sqlast

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"strings"
	"testing"

	"jsonpark/internal/variant"
)

func TestRenderLiterals(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{L(variant.Null), "NULL"},
		{L(variant.Bool(true)), "TRUE"},
		{L(variant.Bool(false)), "FALSE"},
		{L(variant.Int(42)), "42"},
		{L(variant.Float(2.5)), "2.5"},
		{L(variant.Float(40)), "40.0"},
		{L(variant.String("it's")), "'it''s'"},
		{L(variant.Array(variant.Int(1), variant.Int(2))), "ARRAY_CONSTRUCT(1, 2)"},
		{L(variant.ObjectFromPairs("a", variant.Int(1))), "OBJECT_CONSTRUCT('a', 1)"},
	}
	for _, c := range cases {
		if got := RenderExpr(c.e); got != c.want {
			t.Errorf("RenderExpr = %q, want %q", got, c.want)
		}
	}
}

func TestRenderIdentQuoting(t *testing.T) {
	if got := RenderExpr(C(`weird"name`)); got != `"weird""name"` {
		t.Errorf("quoted ident = %q", got)
	}
	if got := RenderExpr(&ColRef{Table: "f", Name: "VALUE"}); got != `"f".VALUE` {
		t.Errorf("qualified ref = %q", got)
	}
}

func TestRenderOperatorsParenthesized(t *testing.T) {
	e := B("AND", B(">", C("a"), L(variant.Int(1))), &Unary{Op: "NOT", Operand: C("b")})
	got := RenderExpr(e)
	want := `(("a" > 1) AND (NOT "b"))`
	if got != want {
		t.Errorf("render = %q, want %q", got, want)
	}
}

func TestRenderSelectClauses(t *testing.T) {
	q := &Select{
		Items:   []SelectItem{{Expr: C("a"), Alias: "x"}, {Star: true}},
		From:    &TableRef{Name: "t"},
		Where:   B("=", C("a"), L(variant.Int(1))),
		GroupBy: []Expr{C("a")},
		Having:  B(">", F("COUNT", &Star{}), L(variant.Int(2))),
		OrderBy: []OrderItem{{Expr: C("x"), Desc: true}},
		Limit:   IntP(3),
	}
	got := Render(q)
	for _, frag := range []string{"SELECT ", `"a" AS "x"`, "*", `FROM "t"`,
		"WHERE", "GROUP BY", "HAVING", "ORDER BY", "DESC", "LIMIT 3"} {
		if !strings.Contains(got, frag) {
			t.Errorf("rendered SQL missing %q:\n%s", frag, got)
		}
	}
}

func TestRenderFlattenAndJoin(t *testing.T) {
	q := &Select{
		Items: []SelectItem{{Star: true}},
		From: &Join{
			Kind: "LEFT OUTER",
			Left: &Flatten{
				Source: &TableRef{Name: "t"},
				Input:  C("arr"),
				Outer:  true,
				Alias:  "f",
			},
			Right: &SubqueryRef{Query: &Select{Items: []SelectItem{{Star: true}}, From: &TableRef{Name: "u"}}, Alias: "s"},
			On:    B("=", C("id"), C("uid")),
		},
	}
	got := Render(q)
	for _, frag := range []string{"LATERAL FLATTEN(INPUT => \"arr\", OUTER => TRUE) AS \"f\"",
		"LEFT OUTER JOIN", `AS "s"`, "ON"} {
		if !strings.Contains(got, frag) {
			t.Errorf("missing %q in:\n%s", frag, got)
		}
	}
}

func TestRenderSetOp(t *testing.T) {
	q := &SetOp{
		Op:    "UNION ALL",
		Left:  &Select{Items: []SelectItem{{Expr: C("a")}}, From: &TableRef{Name: "x"}},
		Right: &Select{Items: []SelectItem{{Expr: C("a")}}, From: &TableRef{Name: "y"}},
	}
	got := Render(q)
	if !strings.Contains(got, ") UNION ALL (") {
		t.Errorf("set op render = %s", got)
	}
}

func TestRenderWithinGroup(t *testing.T) {
	e := &FuncCall{Name: "ARRAY_AGG", Args: []Expr{C("v")},
		WithinOrder: []OrderItem{{Expr: C("k")}, {Expr: C("j"), Desc: true}}}
	got := RenderExpr(e)
	want := `ARRAY_AGG("v") WITHIN GROUP (ORDER BY "k" ASC, "j" DESC)`
	if got != want {
		t.Errorf("render = %q", got)
	}
}

func TestRenderCaseAndCast(t *testing.T) {
	e := &CaseWhen{
		Whens: []WhenClause{{Cond: &IsNull{Operand: C("v")}, Result: L(variant.Int(0))}},
		Else:  &Cast{Operand: C("v"), Type: "double"},
	}
	got := RenderExpr(e)
	want := `CASE WHEN ("v" IS NULL) THEN 0 ELSE ("v" :: DOUBLE) END`
	if got != want {
		t.Errorf("render = %q", got)
	}
}

// traversalCases has rows for every Expr kind, named by the kind before any
// "/"; each is built so that the column "x" sits under some children and not
// others.
// walk is the pre-order Walk visits: leaves by their SQL, inner nodes by
// kind.
var traversalCases = map[string]struct {
	e    Expr
	walk string
}{
	"Lit":    {L(variant.Int(1)), "1"},
	"ColRef": {&ColRef{Table: "f", Name: "VALUE"}, "f.VALUE"},
	"Star":   {&Star{}, "*"},
	"FuncCall": {&FuncCall{Name: "ARRAY_AGG", Args: []Expr{C("a"), C("x")}, Distinct: true,
		WithinOrder: []OrderItem{{Expr: C("b")}, {Expr: C("x"), Desc: true}, {Expr: C("c")}}},
		"FuncCall a x b x c"},
	"FuncCall/args": {F("GET", C("x"), L(variant.String("k"))), "FuncCall x 'k'"},
	"FuncCall/within": {&FuncCall{Name: "ARRAY_AGG", Args: []Expr{C("a")}, WithinOrder: []OrderItem{{Expr: C("x")}}},
		"FuncCall a x"},
	"Binary":   {B("+", C("a"), B("*", C("x"), C("b"))), "Binary a Binary x b"},
	"Unary":    {&Unary{Op: "-", Operand: C("x")}, "Unary x"},
	"IsNull":   {&IsNull{Operand: C("x"), Negate: true}, "IsNull x"},
	"CaseWhen": {&CaseWhen{Whens: []WhenClause{{Cond: C("a"), Result: C("b")}, {Cond: C("x"), Result: C("c")}}}, "CaseWhen a b x c"},
	"CaseWhen/else": {&CaseWhen{Whens: []WhenClause{{Cond: C("a"), Result: C("b")}}, Else: &Unary{Op: "-", Operand: C("x")}},
		"CaseWhen a b Unary x"},
	"Cast": {&Cast{Operand: B("+", C("x"), C("a")), Type: "int"}, "Cast Binary x a"},
}

func traversalLabel(e Expr) string {
	switch x := e.(type) {
	case *Lit, *Star:
		return RenderExpr(x)
	case *ColRef:
		return x.QualifiedName()
	}
	return kindOf(e)
}

func kindOf(e Expr) string { return strings.TrimPrefix(fmt.Sprintf("%T", e), "*sqlast.") }

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
	return slices.Contains(labels, "x")
}

// TestTraversal checks Walk's pre-order and that MapChildren rebuilds only
// the path to a changed child, sharing every other subtree, and returns its
// argument itself, allocating nothing, when no child changes.
func TestTraversal(t *testing.T) {
	// A new kind of expression cannot skip these checks: each declared
	// kind needs a row.
	covered := map[string]bool{}
	for _, c := range traversalCases {
		covered[kindOf(c.e)] = true
	}
	kinds := declaredExprKinds(t)
	for _, kind := range kinds {
		if !covered[kind] {
			t.Errorf("expression kind %s has no row in traversalCases", kind)
		}
	}
	if len(kinds) < 9 {
		t.Fatalf("found %d exprNode methods in sqlast.go, want at least 9", len(kinds))
	}

	var swap func(Expr) Expr // rewrites the column "x" to "y"
	swap = func(e Expr) Expr {
		if c, ok := e.(*ColRef); ok && c.Name == "x" {
			return C("y")
		}
		return MapChildren(e, swap)
	}
	for name, c := range traversalCases {
		t.Run(name, func(t *testing.T) {
			if kind, _, _ := strings.Cut(name, "/"); kindOf(c.e) != kind {
				t.Fatalf("row %s holds a %s", name, kindOf(c.e))
			}
			before := RenderExpr(c.e)
			nodes, labels := preorder(c.e)
			if got := strings.Join(labels, " "); got != c.walk {
				t.Errorf("Walk = %q, want %q", got, c.walk)
			}

			out := swap(c.e)
			if RenderExpr(c.e) != before {
				t.Errorf("rewrite changed its input: %s, was %s", RenderExpr(c.e), before)
			}
			outNodes, outLabels := preorder(out)
			if got, want := strings.Join(outLabels, " "), strings.ReplaceAll(c.walk, "x", "y"); got != want {
				t.Errorf("rewritten Walk = %q, want %q", got, want)
			}
			for i, n := range nodes {
				if shared := outNodes[i] == n; shared == mentionsX(n) {
					t.Errorf("node %d (%s): shared=%v, want shared exactly when it does not mention x", i, RenderExpr(n), shared)
				}
			}

			id := func(e Expr) Expr { return e }
			if MapChildren(c.e, id) != c.e {
				t.Errorf("MapChildren(identity) returned a new node")
			}
			if n := testing.AllocsPerRun(100, func() { MapChildren(c.e, id) }); n != 0 {
				t.Errorf("MapChildren(identity) allocates %v times", n)
			}
		})
	}
}

// declaredExprKinds parses sqlast.go and returns the types that declare an
// exprNode method.
func declaredExprKinds(t *testing.T) []string {
	f, err := parser.ParseFile(token.NewFileSet(), "sqlast.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != "exprNode" {
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
