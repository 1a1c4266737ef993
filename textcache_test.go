package jsonpark

import (
	"strings"
	"testing"

	"jsonpark/internal/obsv"
	"jsonpark/internal/obsv/qlog"
)

// cachedOrders are the documents cachedWarehouse loads into "orders".
var cachedOrders = []string{
	`{"id": 1, "customer": "ada", "items": [{"sku": "apple", "qty": 2}, {"sku": "pear", "qty": 1}]}`,
	`{"id": 2, "customer": "bob", "items": []}`,
	`{"id": 3, "customer": "ada", "items": [{"sku": "plum", "qty": 5}]}`,
}

// cachedWarehouse is exampleWarehouse with the result cache on, as jsqd
// runs it, over cachedOrders.
func cachedWarehouse(t *testing.T) (*Warehouse, []Value) {
	t.Helper()
	w := Open(WithResultCacheBytes(1 << 20))
	if err := w.CreateCollection("orders", []string{"id", "customer", "items"}); err != nil {
		t.Fatal(err)
	}
	return w, loadDocs(t, w, "orders", cachedOrders)
}

func itemsOf(t *testing.T, rep *QueryReport) string {
	t.Helper()
	var parts []string
	for _, row := range rep.Result.Rows {
		parts = append(parts, row[0].JSON())
	}
	return strings.Join(parts, " ")
}

// TestTextHitSkipsFrontend pins the text-hit path: a repeated text's trace
// has no JSONiq frontend stage and no operator-tree build, yet its report
// carries the first translation's SQL, strategy, census and fingerprint.
func TestTextHitSkipsFrontend(t *testing.T) {
	w, _ := cachedWarehouse(t)
	const q = `for $o in collection("orders") where $o.id ge 2 order by $o.id return {"id": $o.id, "n": count($o.items[])}`
	first, err := w.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	again, err := w.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	m := again.Result.Metrics
	if !m.TextCacheHit || !m.PlanCacheHit || !m.ResultCacheHit || first.Result.Metrics.TextCacheHit {
		t.Fatalf("metrics: first %+v, repeat %+v", first.Result.Metrics, m)
	}
	forbidden := []string{"jsoniq.", "iterplan.build", "core.translate", "snowpark.render", "engine.prepare"}
	var seen []string
	again.Trace.Root.Walk(func(_ int, sd obsv.SpanData) {
		for _, f := range forbidden {
			if strings.HasPrefix(sd.Name, f) {
				seen = append(seen, sd.Name)
			}
		}
	})
	if len(seen) > 0 {
		t.Fatalf("a repeated text's trace ran %v", seen)
	}
	if again.SQL != first.SQL || again.Strategy != first.Strategy || again.Census != first.Census ||
		again.Fingerprint != first.Fingerprint || string(again.SQLJSON()) != string(first.SQLJSON()) {
		t.Fatalf("text hit report %+v differs from the translation's %+v", again, first)
	}
	if want := qlog.Fingerprint(first.SQL, first.Strategy); first.Fingerprint != want {
		t.Fatalf("fingerprint %s, want %s", first.Fingerprint, want)
	}
	rec := again.QueryLogRecord()
	if !rec.TextCacheHit || rec.Fingerprint != first.Fingerprint {
		t.Fatalf("query-log record %+v", rec)
	}
	if itemsOf(t, again) != `{"id":2,"n":0} {"id":3,"n":1}` {
		t.Fatalf("items = %s", itemsOf(t, again))
	}
}

// TestTextAliasFollowsRecreatedCollection pins that a text's alias goes
// stale with the collection it reads: recreated with other columns, the
// same text translates again (the assembled object gains the new column)
// and answers over the new data.
func TestTextAliasFollowsRecreatedCollection(t *testing.T) {
	w, _ := cachedWarehouse(t)
	const q = `for $o in collection("orders") order by $o.id return $o`
	if _, err := w.QueryTraced(q); err != nil {
		t.Fatal(err)
	}
	w.Engine().Catalog().DropTable("orders")
	if err := w.CreateCollection("orders", []string{"id", "customer", "items", "note"}); err != nil {
		t.Fatal(err)
	}
	if err := w.LoadJSON("orders", `{"id": 7, "customer": "cy", "items": [], "note": "new"}`); err != nil {
		t.Fatal(err)
	}
	rep, err := w.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Result.Metrics.TextCacheHit {
		t.Fatal("the text hit its alias over a recreated collection")
	}
	if got, want := itemsOf(t, rep), `{"id":7,"customer":"cy","items":[],"note":"new"}`; got != want {
		t.Fatalf("items = %s, want %s", got, want)
	}
	if !strings.Contains(rep.SQL, `"note"`) {
		t.Fatalf("the re-translated SQL does not read the new column:\n%s", rep.SQL)
	}
}

// TestTextAliasPerStrategy pins that the requested strategy is part of the
// text's key: the same nested text under keep-flag and join is two entries,
// each repeat reports its own strategy and SQL, and both answers agree with
// the interpreter.
func TestTextAliasPerStrategy(t *testing.T) {
	w, docs := cachedWarehouse(t)
	const q = `for $o in collection("orders") order by $o.id return {"id": $o.id, "big": [for $i in $o.items[] where $i.qty gt 1 return $i.sku]}`
	want, err := Interpret(q, map[string][]Value{"orders": docs})
	if err != nil {
		t.Fatal(err)
	}
	var wantItems []string
	for _, v := range want {
		wantItems = append(wantItems, v.JSON())
	}
	sqls := map[Strategy]string{}
	for round := 0; round < 2; round++ {
		for _, s := range []Strategy{StrategyKeepFlag, StrategyJoin} {
			rep, err := w.QueryTraced(q, WithStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Result.Metrics.TextCacheHit != (round == 1) {
				t.Fatalf("round %d %s: text hit %v", round, s, rep.Result.Metrics.TextCacheHit)
			}
			sql, err := w.Translate(q, WithStrategy(s))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Strategy != s.String() || rep.SQL != sql {
				t.Fatalf("round %d %s: report says strategy %s, SQL\n%s\nwant\n%s", round, s, rep.Strategy, rep.SQL, sql)
			}
			if got := itemsOf(t, rep); got != strings.Join(wantItems, " ") {
				t.Fatalf("round %d %s: items %s, want %s", round, s, got, strings.Join(wantItems, " "))
			}
			sqls[s] = rep.SQL
		}
	}
	if sqls[StrategyKeepFlag] == sqls[StrategyJoin] {
		t.Fatal("the two strategies translated to the same SQL; the test needs a nested query")
	}
	if _, _, _, entries := w.Engine().PlanCacheStats(); entries != 2 {
		t.Fatalf("plan cache holds %d entries, want 2", entries)
	}
}

// TestTextCacheHitsCounted pins the /metrics counter of text hits.
func TestTextCacheHitsCounted(t *testing.T) {
	w, _ := cachedWarehouse(t)
	for i := 0; i < 3; i++ {
		if _, err := w.Query(`for $o in collection("orders") return $o.id`); err != nil {
			t.Fatal(err)
		}
	}
	var b strings.Builder
	w.Observer().Registry.Expose(&b)
	if !strings.Contains(b.String(), "jsonpark_text_cache_hits_total 2\n") {
		t.Fatalf("metrics lack jsonpark_text_cache_hits_total 2:\n%s", b.String())
	}
}
