package jsoniq

import (
	"strings"
	"testing"

	"jsonpark/internal/variant"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`for $jet in collection("adl").Jet[] where abs($jet.eta) lt 1 return $jet.pt`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]TokenKind, len(toks))
	for i, tk := range toks {
		kinds[i] = tk.Kind
	}
	if toks[0].Kind != TokName || toks[0].Text != "for" {
		t.Errorf("tok0 = %v", toks[0])
	}
	if toks[1].Kind != TokVariable || toks[1].Text != "jet" {
		t.Errorf("tok1 = %v", toks[1])
	}
	if toks[len(toks)-1].Kind != TokEOF {
		t.Error("missing EOF token")
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := Lex(`1 2.5 1e3 172.5 7`)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []TokenKind{TokInteger, TokDecimal, TokDecimal, TokDecimal, TokInteger, TokEOF}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Errorf("tok %d = %v (%q), want %v", i, toks[i].Kind, toks[i].Text, k)
		}
	}
}

func TestLexDotAfterVariableIsFieldAccess(t *testing.T) {
	toks, err := Lex(`$e.pt`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Kind != TokDot {
		t.Errorf("expected dot, got %v", toks[1])
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex(`1 (: a comment (: nested :) still :) 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[0].Text != "1" || toks[1].Text != "2" {
		t.Errorf("tokens = %+v", toks)
	}
	if _, err := Lex(`(: unterminated`); err == nil {
		t.Error("expected error for unterminated comment")
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := Lex(`"a\"b\n"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "a\"b\n" {
		t.Errorf("string = %q", toks[0].Text)
	}
}

func TestLexDoubleBracket(t *testing.T) {
	toks, err := Lex(`$a[[1]] $b[]`)
	if err != nil {
		t.Fatal(err)
	}
	want := []TokenKind{TokVariable, TokLLBracket, TokInteger, TokRRBracket, TokVariable, TokLBracket, TokRBracket, TokEOF}
	for i, k := range want {
		if toks[i].Kind != k {
			t.Fatalf("tok %d = %v, want %v", i, toks[i].Kind, k)
		}
	}
}

func TestParseListing1(t *testing.T) {
	// Simplified ADL Q3 from the paper's Listing 1.
	e, err := Parse(`for $jet in collection("adl").Jet[]
		where abs($jet.eta) lt 1
		return $jet.pt`)
	if err != nil {
		t.Fatal(err)
	}
	fl, ok := e.(*FLWOR)
	if !ok {
		t.Fatalf("top = %T, want FLWOR", e)
	}
	if len(fl.Clauses) != 2 {
		t.Fatalf("clauses = %d, want 2 (for, where)", len(fl.Clauses))
	}
	fc, ok := fl.Clauses[0].(*ForClause)
	if !ok || fc.Var != "jet" {
		t.Fatalf("clause0 = %#v", fl.Clauses[0])
	}
	unbox, ok := fc.In.(*ArrayUnbox)
	if !ok {
		t.Fatalf("for-in = %T, want ArrayUnbox", fc.In)
	}
	fa, ok := unbox.Base.(*FieldAccess)
	if !ok || fa.Field != "Jet" {
		t.Fatalf("unbox base = %#v", unbox.Base)
	}
	if _, ok := fa.Base.(*Collection); !ok {
		t.Fatalf("field base = %T, want Collection", fa.Base)
	}
	wc, ok := fl.Clauses[1].(*WhereClause)
	if !ok {
		t.Fatalf("clause1 = %T", fl.Clauses[1])
	}
	cmp, ok := wc.Cond.(*Binary)
	if !ok || cmp.Op != OpLt {
		t.Fatalf("where cond = %#v", wc.Cond)
	}
	if _, ok := cmp.Left.(*FunctionCall); !ok {
		t.Fatalf("comparison left = %T, want FunctionCall", cmp.Left)
	}
	if _, ok := fl.Return.(*FieldAccess); !ok {
		t.Fatalf("return = %T", fl.Return)
	}
}

func TestParseNestedFLWORInLet(t *testing.T) {
	// Listing 4 from the paper.
	e, err := Parse(`for $event in collection("adl")
		let $filtered := (
			for $m in $event.Muon[]
			where $m.pt gt 10
			return $m
		)
		return size($filtered)`)
	if err != nil {
		t.Fatal(err)
	}
	fl := e.(*FLWOR)
	let, ok := fl.Clauses[1].(*LetClause)
	if !ok {
		t.Fatalf("clause1 = %T", fl.Clauses[1])
	}
	if _, ok := let.Expr.(*FLWOR); !ok {
		t.Fatalf("let expr = %T, want nested FLWOR", let.Expr)
	}
}

func TestParseGroupByOrderBy(t *testing.T) {
	e, err := Parse(`for $e in collection("adl")
		group by $bin := floor($e.MET.pt div 20)
		order by $bin descending
		return {"bin": $bin, "n": count($e)}`)
	if err != nil {
		t.Fatal(err)
	}
	fl := e.(*FLWOR)
	gb, ok := fl.Clauses[1].(*GroupByClause)
	if !ok || len(gb.Keys) != 1 || gb.Keys[0].Var != "bin" || gb.Keys[0].Expr == nil {
		t.Fatalf("group by = %#v", fl.Clauses[1])
	}
	ob, ok := fl.Clauses[2].(*OrderByClause)
	if !ok || !ob.Keys[0].Descending {
		t.Fatalf("order by = %#v", fl.Clauses[2])
	}
	ret, ok := fl.Return.(*ObjectCtor)
	if !ok || len(ret.Keys) != 2 || ret.Keys[0] != "bin" {
		t.Fatalf("return = %#v", fl.Return)
	}
}

func TestParseMultipleForBindings(t *testing.T) {
	e, err := Parse(`for $l in collection("lineorder"), $d in collection("date")
		where $l.lo_orderdate eq $d.d_datekey
		return $l.lo_revenue`)
	if err != nil {
		t.Fatal(err)
	}
	fl := e.(*FLWOR)
	if len(fl.Clauses) != 3 {
		t.Fatalf("clauses = %d, want 3", len(fl.Clauses))
	}
	if fl.Clauses[0].Kind() != "for" || fl.Clauses[1].Kind() != "for" {
		t.Fatal("expected two for clauses")
	}
}

func TestParsePrecedence(t *testing.T) {
	e, err := Parse(`1 + 2 * 3 eq 7 and true`)
	if err != nil {
		t.Fatal(err)
	}
	and, ok := e.(*Binary)
	if !ok || and.Op != OpAnd {
		t.Fatalf("top = %#v, want and", e)
	}
	cmp := and.Left.(*Binary)
	if cmp.Op != OpEq {
		t.Fatalf("left of and = %v", cmp.Op)
	}
	add := cmp.Left.(*Binary)
	if add.Op != OpAdd {
		t.Fatalf("left of eq = %v", add.Op)
	}
	mul := add.Right.(*Binary)
	if mul.Op != OpMul {
		t.Fatalf("right of add = %v", mul.Op)
	}
}

func TestParseRangeAndPositional(t *testing.T) {
	e, err := Parse(`for $i in 1 to size($jets) return $jets[[$i]]`)
	if err != nil {
		t.Fatal(err)
	}
	fl := e.(*FLWOR)
	fc := fl.Clauses[0].(*ForClause)
	rng, ok := fc.In.(*Binary)
	if !ok || rng.Op != OpTo {
		t.Fatalf("for-in = %#v", fc.In)
	}
	if _, ok := fl.Return.(*ArrayIndex); !ok {
		t.Fatalf("return = %T, want ArrayIndex", fl.Return)
	}
}

func TestParseIfAndUnary(t *testing.T) {
	e, err := Parse(`if ($x gt 0) then -$x else not $y`)
	if err != nil {
		t.Fatal(err)
	}
	iff, ok := e.(*If)
	if !ok {
		t.Fatalf("top = %T", e)
	}
	if u, ok := iff.Then.(*Unary); !ok || u.Op != "-" {
		t.Fatalf("then = %#v", iff.Then)
	}
	if u, ok := iff.Else.(*Unary); !ok || u.Op != "not" {
		t.Fatalf("else = %#v", iff.Else)
	}
}

func TestParseAtPositionVar(t *testing.T) {
	e, err := Parse(`for $j at $i in $jets[] return $i`)
	if err != nil {
		t.Fatal(err)
	}
	fc := e.(*FLWOR).Clauses[0].(*ForClause)
	if fc.PosVar != "i" {
		t.Errorf("pos var = %q", fc.PosVar)
	}
}

func TestParseCountClauseVsCountFunction(t *testing.T) {
	e, err := Parse(`for $x in $xs[] count $c return $c`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*FLWOR).Clauses[1].(*CountClause); !ok {
		t.Fatalf("clause1 = %T", e.(*FLWOR).Clauses[1])
	}
	e2, err := Parse(`count($xs)`)
	if err != nil {
		t.Fatal(err)
	}
	if fc, ok := e2.(*FunctionCall); !ok || fc.Name != "count" {
		t.Fatalf("top = %#v", e2)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`for $x return $x`,           // missing in
		`for $x in $y`,               // missing return
		`{pt: }`,                     // missing value
		`$a[$x gt 1]`,                // predicates unsupported
		`1 +`,                        // dangling operator
		`"unterminated`,              // bad string
		`collection($x)`,             // non-literal collection
		`for $x in (1,2) return $x)`, // trailing paren
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseErrorHasPosition(t *testing.T) {
	_, err := Parse("for $x in\n  !bad return $x")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type = %T", err)
	}
	if se.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Line)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	srcs := []string{
		`for $jet in collection("adl").Jet[] where (abs($jet.eta) lt 1) return $jet.pt`,
		`{"a": [1, 2.5], "b": (if ($x gt 0) then 1 else 2)}`,
	}
	for _, src := range srcs {
		e1, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		text := Format(e1)
		e2, err := Parse(text)
		if err != nil {
			t.Fatalf("reparse %q: %v", text, err)
		}
		if Format(e2) != text {
			t.Errorf("format not stable:\n%s\n%s", text, Format(e2))
		}
	}
}

func TestRewriteConstantFolding(t *testing.T) {
	e := Rewrite(MustParse(`1 + 2 * 3`))
	lit, ok := e.(*Literal)
	if !ok || lit.Value.AsInt() != 7 {
		t.Fatalf("folded = %v", Format(e))
	}
	e = Rewrite(MustParse(`if (1 lt 2) then "a" else "b"`))
	lit, ok = e.(*Literal)
	if !ok || lit.Value.AsString() != "a" {
		t.Fatalf("folded if = %v", Format(e))
	}
	e = Rewrite(MustParse(`$x and false`))
	lit, ok = e.(*Literal)
	if !ok || lit.Value.Truthy() {
		t.Fatalf("x and false should fold to false, got %v", Format(e))
	}
	// A literal that does not decide the result leaves the other side's
	// effective boolean value, not the side itself.
	for src, want := range map[string]string{
		`$x or false`:        `boolean($x)`,
		`true and $x`:        `boolean($x)`,
		`true and ($x lt 1)`: `($x lt 1)`,
		`false or not($x)`:   `not($x)`,
		`true and 5`:         `true`,
	} {
		if got := Format(Rewrite(MustParse(src))); got != want {
			t.Errorf("Rewrite(%s) = %s, want %s", src, got, want)
		}
	}
}

func TestRewriteDeadLetElimination(t *testing.T) {
	e := Rewrite(MustParse(`for $x in $xs[] let $unused := $x.a let $used := $x.b return $used`))
	fl := e.(*FLWOR)
	if len(fl.Clauses) != 2 {
		t.Fatalf("clauses after rewrite = %d, want 2 (for + used let)", len(fl.Clauses))
	}
	for _, c := range fl.Clauses {
		if lc, ok := c.(*LetClause); ok && lc.Var == "unused" {
			t.Error("dead let not eliminated")
		}
	}
}

func TestRewriteKeepsLetUsedByLaterClause(t *testing.T) {
	e := Rewrite(MustParse(`for $x in $xs[] let $a := $x.v where $a gt 1 return $x`))
	fl := e.(*FLWOR)
	if len(fl.Clauses) != 3 {
		t.Fatalf("clauses = %d, want 3", len(fl.Clauses))
	}
}

func TestParseEmptySequence(t *testing.T) {
	e, err := Parse(`()`)
	if err != nil {
		t.Fatal(err)
	}
	a, ok := e.(*ArrayCtor)
	if !ok || len(a.Items) != 0 {
		t.Fatalf("() = %#v", e)
	}
}

func TestParseLiteralKinds(t *testing.T) {
	cases := map[string]variant.Kind{
		`1`: variant.KindInt, `2.5`: variant.KindFloat, `"s"`: variant.KindString,
		`true`: variant.KindBool, `null`: variant.KindNull,
	}
	for src, kind := range cases {
		e := MustParse(src)
		lit, ok := e.(*Literal)
		if !ok || lit.Value.Kind() != kind {
			t.Errorf("Parse(%s) = %#v, want literal of %v", src, e, kind)
		}
	}
}

func TestWalkVisitsFLWORChildren(t *testing.T) {
	e := MustParse(`for $x in collection("c") where $x.a gt 1 order by $x.b return {"v": $x.a}`)
	var names []string
	Walk(e, func(n Expr) bool {
		if f, ok := n.(*FieldAccess); ok {
			names = append(names, f.Field)
		}
		return true
	})
	joined := strings.Join(names, ",")
	for _, want := range []string{"a", "b"} {
		if !strings.Contains(joined, want) {
			t.Errorf("Walk missed field %q (saw %s)", want, joined)
		}
	}
}
