package jsonpark

import (
	"strings"
	"testing"
)

// bothBackends loads docs into a fresh collection "data" and checks that
// src translated under every strategy returns want, as the interpreter does.
func bothBackends(t *testing.T, columns, docs []string, src string, want ...string) {
	t.Helper()
	w := Open()
	if err := w.CreateCollection("data", columns); err != nil {
		t.Fatal(err)
	}
	vs := loadDocs(t, w, "data", docs)
	interpreted, err := Interpret(src, map[string][]Value{"data": vs})
	if err != nil {
		t.Fatalf("interp: %v", err)
	}
	if got := itemsJSON(interpreted); got != strings.Join(want, ", ") {
		t.Errorf("interp returned %s, want %s", got, strings.Join(want, ", "))
	}
	for _, s := range []Strategy{StrategyKeepFlag, StrategyJoin} {
		translated, err := w.QueryItems(src, WithStrategy(s))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if got := itemsJSON(translated); got != strings.Join(want, ", ") {
			t.Errorf("%s returned %s, want %s", s, got, strings.Join(want, ", "))
		}
	}
}

func itemsJSON(items []Value) string {
	out := make([]string, len(items))
	for i, v := range items {
		out[i] = v.JSON()
	}
	return strings.Join(out, ", ")
}

// TestGroupByAggregateRespectsShadowing: aggregate detection after a group
// by maps count($e...) to the group's COUNT only where $e still is the
// grouped variable — not inside a nested FLWOR, nor after a clause, that
// rebinds $e.
func TestGroupByAggregateRespectsShadowing(t *testing.T) {
	docs := []string{`{"g": "a", "v": 5}`, `{"g": "a", "v": 7}`, `{"g": "b", "v": 1}`}
	cases := map[string]struct {
		src  string
		want []string
	}{
		"nested-for": {`for $e in collection("data") group by $k := $e.g order by $k
			return sum(for $e in $e[] return count($e.v))`, []string{"2", "1"}},
		"renamed": {`for $e in collection("data") group by $k := $e.g order by $k
			return sum(for $x in $e[] return count($x.v))`, []string{"2", "1"}},
		"let-after-group": {`for $e in collection("data") group by $k := $e.g
			let $e := [10, 20, 30] order by $k return count($e)`, []string{"3", "3"}},
		"let-after-group-sum": {`for $e in collection("data") group by $k := $e.g
			let $e := [$k, $k] order by $k return {"k": $k, "n": count($e), "s": sum($e.v)}`,
			[]string{`{"k":"a","n":2,"s":0}`, `{"k":"b","n":2,"s":0}`}},
		"grouped": {`for $e in collection("data") group by $k := $e.g order by $k
			return count($e.v)`, []string{"2", "1"}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			bothBackends(t, []string{"g", "v"}, docs, c.src, c.want...)
		})
	}
}

// TestInlinedFunctionShadowsParameterPerScope: a function body that rebinds
// its parameter's name inside a nested FLWOR still reads the parameter
// outside it.
func TestInlinedFunctionShadowsParameterPerScope(t *testing.T) {
	src := `declare function local:g($x) { let $y := (for $x in [10][] return $x) return $x + size($y) }
		for $e in collection("data") order by $e.id return local:g($e.id)`
	bothBackends(t, []string{"id"}, []string{`{"id": 1}`, `{"id": 2}`}, src, "[2]", "[3]")
}

// TestBooleanShortCircuitsKeepTruth: `true and $v`, `$v or false` and
// boolean($v) are the effective boolean value of $v on both back-ends, never
// $v itself, and the translated IFF reads a number's truth as AND does.
func TestBooleanShortCircuitsKeepTruth(t *testing.T) {
	docs := []string{`{"id": 1, "v": 5}`, `{"id": 2, "v": 0}`, `{"id": 3, "v": true}`, `{"id": 4}`}
	for _, ret := range []string{`true and $e.v`, `$e.v or false`, `boolean($e.v)`, `not(not($e.v))`, `if ($e.v) then true else false`} {
		t.Run(ret, func(t *testing.T) {
			src := `for $e in collection("data") order by $e.id return ` + ret
			bothBackends(t, []string{"id", "v"}, docs, src, "true", "false", "true", "false")
		})
	}
}

// TestRebindingKeepsOuterBinding: a clause that rebinds a variable's name,
// in a nested FLWOR or after the collection's for, hides the outer binding
// only where the scope rule says so; translated under both strategies the
// outer column and the collection's field columns keep reading the outer
// binding, as the interpreter does.
func TestRebindingKeepsOuterBinding(t *testing.T) {
	t.Run("nested-for", func(t *testing.T) {
		src := `for $e in collection("data") let $s := sum(for $e in $e.xs[] return $e) return {"s": $s, "e": $e}`
		bothBackends(t, []string{"id", "xs"}, []string{`{"id":1,"xs":[1,2]}`}, src, `{"s":3,"e":{"id":1,"xs":[1,2]}}`)
	})
	t.Run("let-after-collection-for", func(t *testing.T) {
		src := `for $e in collection("data") let $e := {"id": 7} return $e.id`
		bothBackends(t, []string{"id"}, []string{`{"id": 1}`, `{"id": 2}`}, src, "7", "7")
	})
}
