package core

import (
	"strings"
	"testing"
)

// TestLiveColumns runs shapes where a column is read only before, only
// inside, or only after a nested query — or by an expression holding two
// nested results at once — through both strategies against the
// interpreter: a column dropped too early fails to resolve or answers
// differently.
func TestLiveColumns(t *testing.T) {
	for _, src := range []string{
		`for $e in collection("adl") return count(for $m in $e.Muon[] return $m) + count(for $j in $e.Jet[] where $j.pt gt 20 return $j)`,
		`for $e in collection("adl") return [sum(for $m in $e.Muon[] return $m.pt), $e.EVENT, max(for $j in $e.Jet[] return $j.pt)]`,
		`for $e in collection("adl") let $n := count(for $m in $e.Muon[] return $m) where $n gt 0 return $e`,
		`for $e in collection("adl") let $t := 30 let $n := count(for $j in $e.Jet[] where $j.pt gt $t return $j) return $n`,
		`for $e in collection("adl") let $n := count(for $m in $e.Muon[] return $m) order by $e.EVENT return $n`,
		`for $e in collection("adl") let $c := count(for $k in [$e][] return $k.EVENT) return $c`,
		`for $e in collection("adl") order by count(for $m in $e.Muon[] return $m), $e.EVENT return $e.EVENT`,
		`for $e in collection("adl") group by $k := count(for $m in $e.Muon[] return $m) order by $k return {"k": $k, "n": count($e)}`,
		`for $e in collection("adl") group by $k := $e.HLT.IsoMu24 order by $k return {"k": $k, "n": count($e), "s": sum($e.EVENT), "ids": [for $x in $e[] return $x.EVENT]}`,
		`for $e in collection("adl") return 1`,
		`for $e in collection("adl") for $j at $i in $e.Jet[] let $n := count(for $m in $e.Muon[] where $m.pt gt $j.pt return $m) return {"ev": $e.EVENT, "i": $i, "n": $n}`,
		`for $e in collection("adl") let $s := (for $m in $e.Muon[] order by $m.pt descending return {"pt": $m.pt, "n": count(for $j in $e.Jet[] where $j.pt gt $m.pt return $j)}) return {"ev": $e.EVENT, "s": $s}`,
		// An argument inlined at each use of a parameter: every copy reads
		// the outer columns itself.
		`declare function local:sq($x) { $x * $x } for $e in collection("adl") return local:sq(count(for $j in $e.Jet[] return $j))`,
		`declare function local:spread($a) { sum($a) + max($a) } for $e in collection("adl") return local:spread(for $j in $e.Jet[] return $j.pt)`,
		`declare function local:spread($a) { sum($a) + max($a) } for $e in collection("adl") return local:spread([$e.MET.pt, $e.EVENT][])`,
	} {
		t.Run("", func(t *testing.T) { runBoth(t, src) })
	}
}

// TestCollectionFrameReadsOnlyLiveFields pins the live-column rule at the
// collection's for: a field never read off the variable gets no
// passthrough column, and the whole-document object appears only when the
// variable is read whole.
func TestCollectionFrameReadsOnlyLiveFields(t *testing.T) {
	cases := []struct {
		src        string
		want, lack []string
	}{
		{`for $e in collection("adl") return $e.MET.pt`, []string{`"MET"`}, []string{`"HLT"`, `"Jet"`, `OBJECT_CONSTRUCT`}},
		{`for $e in collection("adl") group by $k := $e.MET.pt return {"k": $k, "n": count($e)}`, []string{`COUNT(*)`}, []string{`"Jet"`, `OBJECT_CONSTRUCT('EVENT'`}},
		{`for $e in collection("adl") where $e.EVENT gt 1 return $e`, []string{`OBJECT_CONSTRUCT('EVENT'`}, []string{`"e.Jet"`}},
		{`for $e in collection("adl") let $n := count(for $j in $e.Jet[] return $j) return {"n": $n, "met": $e.MET}`, []string{`ANY_VALUE("e.MET")`}, []string{`ANY_VALUE("e.Jet")`, `"HLT"`}},
	}
	for _, c := range cases {
		res, err := Translate(newSession(t), c.src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range c.want {
			if !strings.Contains(res.SQL, w) {
				t.Errorf("%s\nSQL lacks %s:\n%s", c.src, w, res.SQL)
			}
		}
		for _, l := range c.lack {
			if strings.Contains(res.SQL, l) {
				t.Errorf("%s\nSQL has %s:\n%s", c.src, l, res.SQL)
			}
		}
	}
}
