package jsonpark

import (
	"strings"
	"sync"
	"testing"

	"jsonpark/internal/variant"
)

func exampleWarehouse(t *testing.T) *Warehouse {
	t.Helper()
	w := Open()
	if err := w.CreateCollection("orders", []string{"id", "customer", "items"}); err != nil {
		t.Fatal(err)
	}
	docs := []string{
		`{"id": 1, "customer": "ada", "items": [{"sku": "apple", "qty": 2, "price": 1.5}, {"sku": "pear", "qty": 1, "price": 2.0}]}`,
		`{"id": 2, "customer": "bob", "items": []}`,
		`{"id": 3, "customer": "ada", "items": [{"sku": "plum", "qty": 5, "price": 0.5}]}`,
	}
	for _, d := range docs {
		if err := w.LoadJSON("orders", d); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

func TestWarehouseQuickstartFlow(t *testing.T) {
	w := exampleWarehouse(t)
	items, err := w.QueryItems(`
		for $o in collection("orders")
		for $i in $o.items[]
		where $i.qty gt 1
		return {"id": $o.id, "sku": $i.sku}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Fatalf("items = %v", items)
	}
}

func TestWarehouseNestedTotalPerOrder(t *testing.T) {
	w := exampleWarehouse(t)
	for _, strat := range []Strategy{StrategyKeepFlag, StrategyJoin} {
		items, err := w.QueryItems(`
			for $o in collection("orders")
			let $total := sum(for $i in $o.items[] return $i.qty * $i.price)
			order by $o.id
			return {"id": $o.id, "total": $total}`, WithStrategy(strat))
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != 3 {
			t.Fatalf("rows = %v", items)
		}
		// Order 2 has no items: it must survive with total 0 (§IV-C).
		if got := items[1].Field("total").AsFloat(); got != 0 {
			t.Errorf("strategy %v: order 2 total = %v", strat, got)
		}
		if got := items[0].Field("total").AsFloat(); got != 5.0 {
			t.Errorf("strategy %v: order 1 total = %v", strat, got)
		}
	}
}

func TestWarehouseTranslateProducesSingleSQL(t *testing.T) {
	w := exampleWarehouse(t)
	sql, err := w.Translate(`for $o in collection("orders") return $o.id`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sql, "SELECT") {
		t.Errorf("sql = %s", sql)
	}
	// The engine accepts the exact text.
	if _, err := w.SQL(sql); err != nil {
		t.Fatalf("engine rejected translation: %v", err)
	}
}

func TestWarehouseInterpretedMatchesTranslated(t *testing.T) {
	w := exampleWarehouse(t)
	src := `for $o in collection("orders")
		group by $c := $o.customer
		order by $c
		return {"customer": $c, "orders": count($o)}`
	translated, err := w.QueryItems(src)
	if err != nil {
		t.Fatal(err)
	}
	interpreted, err := w.QueryInterpreted(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(translated) != len(interpreted) {
		t.Fatalf("row count mismatch: %d vs %d", len(translated), len(interpreted))
	}
	for i := range translated {
		if translated[i].HashKey() != interpreted[i].HashKey() {
			t.Errorf("row %d: %v vs %v", i, translated[i], interpreted[i])
		}
	}
}

// TestWarehouseInterpretedReplaysExactDocuments: the interpreter replays the
// loaded documents from their binary encoding, which must keep a missing
// field apart from an explicit null and the integer 1 apart from the double
// 1.0, exactly as loaded.
func TestWarehouseInterpretedReplaysExactDocuments(t *testing.T) {
	w := Open()
	if err := w.CreateCollection("docs", []string{"id", "v"}); err != nil {
		t.Fatal(err)
	}
	docs := []string{
		`{"id": 1, "v": 1}`,
		`{"id": 2, "v": 1.0}`,
		`{"id": 3, "v": null}`,
		`{"id": 4}`,
		`{"id": 5, "v": {"n": null, "xs": [1, 1.0, "1", []]}}`,
	}
	for _, d := range docs {
		if err := w.LoadJSON("docs", d); err != nil {
			t.Fatal(err)
		}
	}
	items, err := w.QueryInterpreted(`for $d in collection("docs") return $d`)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(docs) {
		t.Fatalf("replayed %d documents, want %d", len(items), len(docs))
	}
	for i, d := range docs {
		want := variant.MustParseJSON(d)
		if !variant.BinaryEqual(items[i], want) {
			t.Errorf("document %d replayed as %s, want %s", i, items[i].JSON(), want.JSON())
		}
	}
	src := `for $d in collection("docs") order by $d.id return {"id": $d.id, "v": $d.v}`
	translated, err := w.QueryItems(src)
	if err != nil {
		t.Fatal(err)
	}
	interpreted, err := w.QueryInterpreted(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(translated) != len(interpreted) {
		t.Fatalf("row count mismatch: %d vs %d", len(translated), len(interpreted))
	}
	for i := range translated {
		if translated[i].HashKey() != interpreted[i].HashKey() {
			t.Errorf("row %d: %v vs %v", i, translated[i], interpreted[i])
		}
	}
}

// TestWarehouseConcurrentLoadAndReplay: loads and interpreted replays may run
// from several goroutines at once (jsqd serves both); every replay sees a
// whole-document prefix of the loads.
func TestWarehouseConcurrentLoadAndReplay(t *testing.T) {
	w := Open()
	if err := w.CreateCollection("docs", []string{"id"}); err != nil {
		t.Fatal(err)
	}
	// The interpreter knows a collection once it holds a document.
	if err := w.LoadJSON("docs", `{"id": 0, "tag": "x"}`); err != nil {
		t.Fatal(err)
	}
	const loaders, perLoader = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < loaders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perLoader; i++ {
				if err := w.LoadJSON("docs", `{"id": 1, "tag": "x"}`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if _, err := w.QueryInterpreted(`for $d in collection("docs") return $d.tag`); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	items, err := w.QueryInterpreted(`for $d in collection("docs") return $d.tag`)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1+loaders*perLoader {
		t.Fatalf("replayed %d documents, want %d", len(items), 1+loaders*perLoader)
	}
}

func TestWarehouseMetricsExposed(t *testing.T) {
	w := exampleWarehouse(t)
	res, err := w.Query(`for $o in collection("orders") return $o.id`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CompileTime <= 0 || res.Metrics.BytesScanned <= 0 {
		t.Errorf("metrics = %+v", res.Metrics)
	}
}

func TestWarehouseErrors(t *testing.T) {
	w := exampleWarehouse(t)
	if err := w.CreateCollection("orders", []string{"x"}); err == nil {
		t.Error("duplicate collection should fail")
	}
	if err := w.LoadJSON("orders", `{not json`); err == nil {
		t.Error("bad JSON should fail")
	}
	if err := w.LoadJSON("missing", `{}`); err == nil {
		t.Error("unknown collection should fail")
	}
	if _, err := w.Query(`for $x in`); err == nil {
		t.Error("syntax error should surface")
	}
	if _, err := w.Query(`for $o in collection("nope") return $o`); err == nil {
		t.Error("unknown collection in query should surface")
	}
}

// A document that is not an object has no fields to stage: loading it
// fails and leaves the collection unchanged, for both backends.
func TestWarehouseLoadRejectsNonObject(t *testing.T) {
	w := exampleWarehouse(t)
	tab, err := w.Engine().Catalog().Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	before := tab.NumRows()
	if err := w.LoadJSON("orders", `[1,2]`); err == nil || !strings.Contains(err.Error(), "ARRAY") {
		t.Fatalf("LoadJSON of an array = %v, want an error naming ARRAY", err)
	}
	if got := tab.NumRows(); got != before {
		t.Fatalf("rows = %d after a rejected load, want %d", got, before)
	}
	items, err := w.QueryInterpreted(`count(collection("orders"))`)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].AsInt() != before {
		t.Fatalf("interpreted count = %v, want %d", items, before)
	}
}

func TestParseByteSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"64MiB", 64 << 20},
		{"1.5m", 3 << 19},
		{"2g", 2 << 30},
		{"0", 0},
	} {
		if got, err := ParseByteSize(tc.in); err != nil || got != tc.want {
			t.Errorf("ParseByteSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	// Malformed sizes, and sizes of 2^63 bytes or more, which would wrap to
	// a negative int64.
	for _, in := range []string{"", "ib", "8EiB", "1e19", "9.3e18", "16777216TiB"} {
		if got, err := ParseByteSize(in); err == nil {
			t.Errorf("ParseByteSize(%q) = %d, want an error", in, got)
		}
	}
}

func TestWarehouseExplain(t *testing.T) {
	w := exampleWarehouse(t)
	sql, err := w.Translate(`for $o in collection("orders") where $o.id gt 1 return $o.id`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := w.ExplainSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "Scan orders") {
		t.Errorf("plan = %s", plan)
	}
}
