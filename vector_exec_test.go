package jsonpark

import (
	"fmt"
	"testing"

	"jsonpark/internal/vector"
)

// eliminationWarehouse loads a dataset crafted so nested sub-queries produce
// erroneous objects (parent rows whose nested filter matches nothing) and
// flatten hits empty arrays — the §IV-C cases both elimination strategies
// must handle.
func eliminationWarehouse(t *testing.T, opts ...OpenOption) *Warehouse {
	t.Helper()
	w := Open(opts...)
	if err := w.CreateCollection("orders", []string{"id", "customer", "items"}); err != nil {
		t.Fatal(err)
	}
	docs := []string{
		`{"id": 1, "customer": "ada", "items": [{"sku": "apple", "qty": 2}, {"sku": "pear", "qty": 7}]}`,
		`{"id": 2, "customer": "bob", "items": []}`,
		`{"id": 3, "customer": "cyd", "items": [{"sku": "plum", "qty": 1}]}`,
		`{"id": 4, "customer": "dee", "items": [{"sku": "fig", "qty": 9}, {"sku": "date", "qty": 3}]}`,
		`{"id": 5, "customer": "eve", "items": []}`,
	}
	for _, d := range docs {
		if err := w.LoadJSON("orders", d); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// TestEliminationStrategiesAcrossBatchSizes checks erroneous-object
// elimination under the vectorized executor: the nested where matches no
// item for orders 2, 3 and 5, so the KEEP-flag and JOIN strategies both
// have to eliminate spurious rows while keeping every parent. The expected
// output is pinned as a golden, and batch sizes 1 and 1024 (sequential and
// parallel) must agree with it exactly — as must batch sizes 1, 2, 7, 1024 ×
// parallelism 1, 4 with recycled storage poisoned (vector.SetPoison), which
// is how a consumer holding a streamed batch too long would show.
func TestEliminationStrategiesAcrossBatchSizes(t *testing.T) {
	query := `
		for $o in collection("orders")
		let $big := [ for $i in $o.items[] where $i.qty ge 5 return $i.sku ]
		order by $o.id
		return {"id": $o.id, "big": $big}`
	// Golden pinned from the row-at-a-time seed executor; the interpreted
	// runtime produces the same objects.
	golden := `{"id":1,"big":[["pear"]]}` +
		`{"id":2,"big":[[]]}` +
		`{"id":3,"big":[[]]}` +
		`{"id":4,"big":[["fig"]]}` +
		`{"id":5,"big":[[]]}`
	type config struct {
		name   string
		opts   []OpenOption
		poison bool
	}
	configs := []config{
		{"bs1-seq", []OpenOption{WithBatchSize(1), WithParallelism(1)}, false},
		{"bs1024-seq", []OpenOption{WithBatchSize(1024), WithParallelism(1)}, false},
		{"bs1024-par", []OpenOption{WithBatchSize(1024)}, false},
	}
	for _, bs := range []int{1, 2, 7, 1024} {
		for _, par := range []int{1, 4} {
			configs = append(configs, config{fmt.Sprintf("poison-bs%d-par%d", bs, par),
				[]OpenOption{WithBatchSize(bs), WithParallelism(par)}, true})
		}
	}
	defer vector.SetPoison(false)
	for _, cfg := range configs {
		vector.SetPoison(cfg.poison)
		w := eliminationWarehouse(t, cfg.opts...)
		for _, strat := range []Strategy{StrategyKeepFlag, StrategyJoin} {
			items, err := w.QueryItems(query, WithStrategy(strat))
			if err != nil {
				t.Fatalf("%s strategy %v: %v", cfg.name, strat, err)
			}
			got := ""
			for _, it := range items {
				got += it.JSON()
			}
			if got != golden {
				t.Errorf("%s strategy %v:\ngot:  %s\nwant: %s", cfg.name, strat, got, golden)
			}
		}
	}
}

// TestEmptyArrayFlattenAcrossBatchSizes pins empty-array flatten behaviour:
// inner flatten drops the order, outer-style aggregation keeps it — and
// every batch size must agree byte for byte.
func TestEmptyArrayFlattenAcrossBatchSizes(t *testing.T) {
	flat := `
		for $o in collection("orders")
		for $i in $o.items[]
		return {"id": $o.id, "sku": $i.sku}`
	flatGolden := `{"id":1,"sku":"apple"}{"id":1,"sku":"pear"}` +
		`{"id":3,"sku":"plum"}{"id":4,"sku":"fig"}{"id":4,"sku":"date"}`
	counts := `
		for $o in collection("orders")
		let $n := count(for $i in $o.items[] return $i)
		order by $o.id
		return {"id": $o.id, "n": $n}`
	countsGolden := `{"id":1,"n":2}{"id":2,"n":0}{"id":3,"n":1}{"id":4,"n":2}{"id":5,"n":0}`
	for _, cfg := range []struct {
		name string
		opts []OpenOption
	}{
		{"bs1-seq", []OpenOption{WithBatchSize(1), WithParallelism(1)}},
		{"bs1024-seq", []OpenOption{WithBatchSize(1024), WithParallelism(1)}},
		{"bs1024-par", []OpenOption{WithBatchSize(1024)}},
	} {
		w := eliminationWarehouse(t, cfg.opts...)
		for _, tc := range []struct{ q, golden string }{{flat, flatGolden}, {counts, countsGolden}} {
			items, err := w.QueryItems(tc.q)
			if err != nil {
				t.Fatalf("%s: %v", cfg.name, err)
			}
			got := ""
			for _, it := range items {
				got += it.JSON()
			}
			if got != tc.golden {
				t.Errorf("%s:\ngot:  %s\nwant: %s", cfg.name, got, tc.golden)
			}
		}
	}
}

// TestWarehouseOptionsExposed sanity-checks the functional options plumb
// through to the engine.
func TestWarehouseOptionsExposed(t *testing.T) {
	w := Open(WithBatchSize(64), WithParallelism(2))
	if got := w.Engine().BatchSize(); got != 64 {
		t.Errorf("BatchSize = %d", got)
	}
	if got := w.Engine().Parallelism(); got != 2 {
		t.Errorf("Parallelism = %d", got)
	}
	// Defaults: non-zero.
	d := Open()
	if d.Engine().BatchSize() <= 0 || d.Engine().Parallelism() <= 0 {
		t.Errorf("defaults: bs=%d par=%d", d.Engine().BatchSize(), d.Engine().Parallelism())
	}
}
