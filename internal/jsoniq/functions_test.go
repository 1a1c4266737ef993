package jsoniq

import (
	"strings"
	"testing"
)

func TestParseModuleWithFunctions(t *testing.T) {
	m, err := ParseModule(`
		declare function local:square($x) { $x * $x }
		declare function local:hypot($a, $b) { sqrt(local:square($a) + local:square($b)) }
		for $e in collection("c") return local:hypot($e.x, $e.y)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Functions) != 2 {
		t.Fatalf("decls = %d", len(m.Functions))
	}
	if m.Functions[1].Name != "hypot" || len(m.Functions[1].Params) != 2 {
		t.Fatalf("decl = %+v", m.Functions[1])
	}
}

func TestInlineSubstitutesBody(t *testing.T) {
	e, err := Parse(`
		declare function local:double($x) { $x + $x }
		for $e in collection("c") return local:double($e.v)`)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(e)
	if strings.Contains(text, "double") {
		t.Errorf("call not inlined: %s", text)
	}
	if strings.Count(text, "$e.v") != 2 {
		t.Errorf("argument not substituted twice: %s", text)
	}
}

func TestInlineNestedCalls(t *testing.T) {
	e, err := Parse(`
		declare function local:sq($x) { $x * $x }
		declare function local:quad($x) { local:sq(local:sq($x)) }
		for $e in collection("c") return local:quad($e.v)`)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(e)
	if strings.Contains(text, "sq") || strings.Contains(text, "quad") {
		t.Errorf("nested calls not fully inlined: %s", text)
	}
}

func TestInlineRejectsRecursion(t *testing.T) {
	_, err := Parse(`
		declare function local:loop($x) { local:loop($x) }
		for $e in collection("c") return local:loop($e)`)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("expected recursion error, got %v", err)
	}
	_, err = Parse(`
		declare function local:a($x) { local:b($x) }
		declare function local:b($x) { local:a($x) }
		for $e in collection("c") return local:a($e)`)
	if err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Errorf("expected mutual recursion error, got %v", err)
	}
}

func TestInlineAvoidsVariableCapture(t *testing.T) {
	// The function body binds $m; the caller's argument also references a
	// caller-side $m. Without alpha renaming, the body's for-binding would
	// capture the argument's $m.
	e, err := Parse(`
		declare function local:firstBig($arr, $cut) {
			(for $m in $arr[] where $m gt $cut return $m)[[1]]
		}
		for $e in collection("c")
		for $m in $e.rows[]
		return local:firstBig($m.vals, $m.cut)`)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(e)
	// The inlined inner for must bind a renamed variable, not $m.
	if !strings.Contains(text, "#inl") {
		t.Errorf("bound variables not renamed: %s", text)
	}
	if strings.Contains(text, "for $m in $m.vals") {
		t.Errorf("capture occurred: %s", text)
	}
}

func TestInlineArityMismatch(t *testing.T) {
	_, err := Parse(`
		declare function local:f($a, $b) { $a + $b }
		for $e in collection("c") return local:f($e)`)
	if err == nil || !strings.Contains(err.Error(), "arguments") {
		t.Errorf("expected arity error, got %v", err)
	}
}

func TestDuplicateDeclarationRejected(t *testing.T) {
	_, err := Parse(`
		declare function local:f($a) { $a }
		declare function local:f($a) { $a }
		for $e in collection("c") return local:f($e)`)
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("expected duplicate error, got %v", err)
	}
}

func TestUnknownLocalFunctionErrors(t *testing.T) {
	// A local: call without a declaration falls through to an unknown
	// function, caught by the back-ends; the parser accepts the syntax.
	e, err := Parse(`for $x in collection("c") return local:nope($x)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(Format(e), "nope(") {
		t.Errorf("call should remain: %s", Format(e))
	}
}

func TestProloglessQueriesUnchanged(t *testing.T) {
	e, err := Parse(`for $x in collection("c") where $x.a gt 1 return $x.b`)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*FLWOR); !ok {
		t.Fatalf("top = %T", e)
	}
}

func TestInlineRenamesPerScope(t *testing.T) {
	// The body rebinds its parameter's name inside a nested FLWOR only: the
	// renaming of that binding must not reach the parameter's reads outside
	// it, which take the argument.
	e, err := Parse(`
		declare function local:g($x) { let $y := (for $x in [10][] return $x) return $x + size($y) }
		for $e in collection("data") return local:g($e.id)`)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(e)
	if !strings.Contains(text, "return ($e.id + size($y#inl") {
		t.Errorf("the parameter outside the nested FLWOR is not the argument: %s", text)
	}
	Walk(e, func(n Expr) bool {
		if v, ok := n.(*VarRef); ok && ExprUsesVar(e, v.Name) {
			t.Errorf("$%s is unbound in %s", v.Name, text)
		}
		return true
	})
}

func TestInlineRegroupsRenamedVariable(t *testing.T) {
	// `group by $k` in a body reads $k: renamed, the key keeps that read,
	// through the renaming of $k's own binding or the parameter's argument.
	for src, want := range map[string]string{
		`declare function local:f($xs) { for $v in $xs[] let $k := $v.g group by $k return $k }
		 for $e in collection("c") return local:f($e.vs)`: `(for $e in collection("c") return (for $v#inl1 in $e.vs[] let $k#inl2 := $v#inl1.g group by $k#inl3 := $k#inl2 return $k#inl3))`,
		`declare function local:f($xs, $k) { for $v in $xs[] group by $k return $k }
		 for $e in collection("c") return local:f($e.vs, $e.g)`: `(for $e in collection("c") return (for $v#inl1 in $e.vs[] group by $k#inl2 := $e.g return $k#inl2))`,
	} {
		e, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := Format(e); got != want {
			t.Errorf("inlined\n%s\nwant\n%s", got, want)
		}
	}
}
