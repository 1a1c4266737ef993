package jsonpark_test

import (
	"regexp"
	"strings"
	"testing"

	"jsonpark/internal/adl"
	"jsonpark/internal/core"
	"jsonpark/internal/jsoniq"
	"jsonpark/internal/ssb"
)

// sqlCensus is the upper bound on the generated SQL of one query: its
// SELECT layers and its bytes. The translator may only emit less; lower a
// bound deliberately when a change shrinks the SQL.
type sqlCensus struct{ selects, bytes int }

var generatedSQLBounds = map[string]sqlCensus{
	"q1 keep-flag": {4, 283}, "q1 join": {4, 283},
	"q2 keep-flag": {5, 355}, "q2 join": {5, 355},
	"q3 keep-flag": {5, 396}, "q3 join": {5, 396},
	"q4 keep-flag": {8, 845}, "q4 join": {10, 754},
	"q5 keep-flag": {13, 2232}, "q5 join": {13, 1254},
	"q6 keep-flag": {13, 3134}, "q6 join": {15, 2527},
	"q7 keep-flag": {22, 3890}, "q7 join": {33, 3600},
	"q8 keep-flag": {25, 4703}, "q8 join": {107, 11804},
	"ssb q1.1": {4, 529}, "ssb q1.2": {4, 586}, "ssb q1.3": {4, 634},
	"ssb q2.1": {10, 980}, "ssb q2.2": {10, 982}, "ssb q2.3": {10, 947},
	"ssb q3.1": {10, 1104}, "ssb q3.2": {10, 1102}, "ssb q3.3": {10, 1102}, "ssb q3.4": {10, 1118},
	"ssb q4.1": {12, 1299}, "ssb q4.2": {12, 1455}, "ssb q4.3": {12, 1431},
}

// passthrough matches a select item naming a collection variable's field
// column, `AS "e.Jet"`; auxiliary columns start with '#'.
var passthrough = regexp.MustCompile(`AS "([^"#.][^".]*)\.([^"]+)"`)

// TestGeneratedSQLCensus translates every ADL query under both strategies
// and every SSB text, and holds each SQL to its bound in SELECT layers and
// bytes; no select item may carry a field the query never reads off its
// variable (ADL q7 reads Jet, Muon, Electron and MET off $e, so no e.HLT,
// e.Photon or e.Tau).
func TestGeneratedSQLCensus(t *testing.T) {
	check := func(t *testing.T, name, src, sql string) {
		bound, ok := generatedSQLBounds[name]
		if !ok {
			t.Fatalf("%s: no bound", name)
		}
		if n := strings.Count(sql, "SELECT"); n > bound.selects {
			t.Errorf("%s: %d SELECT layers, bound %d", name, n, bound.selects)
		}
		if len(sql) > bound.bytes {
			t.Errorf("%s: %d bytes, bound %d", name, len(sql), bound.bytes)
		}
		read := fieldsRead(t, src)
		for _, m := range passthrough.FindAllStringSubmatch(sql, -1) {
			if !read[m[1]+"."+m[2]] {
				t.Errorf("%s: SQL carries %s.%s, which the query never reads", name, m[1], m[2])
			}
		}
	}
	sess, _, err := adl.Setup(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range adl.Queries() {
		for _, s := range []core.Strategy{core.StrategyKeepFlag, core.StrategyJoin} {
			res, err := core.Translate(sess, q.JSONiq, core.Options{Strategy: s})
			if err != nil {
				t.Fatal(err)
			}
			check(t, q.ID+" "+s.String(), q.JSONiq, res.SQL)
			if q.ID == "q7" && regexp.MustCompile(`e\.(HLT|Photon|Tau)`).MatchString(res.SQL) {
				t.Errorf("q7 %s carries a field it never reads:\n%s", s, res.SQL)
			}
		}
	}
	ssess, err := ssb.Setup(1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range ssb.Queries() {
		res, err := core.Translate(ssess, q.JSONiq, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		check(t, "ssb "+q.ID, q.JSONiq, res.SQL)
	}
}

// fieldsRead returns the "v.F" of every field access $v.F in src.
func fieldsRead(t *testing.T, src string) map[string]bool {
	e, err := jsoniq.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	read := make(map[string]bool)
	jsoniq.Walk(e, func(n jsoniq.Expr) bool {
		if fa, ok := n.(*jsoniq.FieldAccess); ok {
			if v, ok := fa.Base.(*jsoniq.VarRef); ok {
				read[v.Name+"."+fa.Field] = true
			}
		}
		return true
	})
	return read
}
