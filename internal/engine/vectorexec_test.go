package engine

import (
	"fmt"
	"strings"
	"testing"

	"jsonpark/internal/sqlparse"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// multiPartEngine builds an engine whose "events" table spans many small
// micro-partitions, so parallel morsel scans have real work to split.
func multiPartEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e := New(opts...)
	tab, err := e.Catalog().CreateTable("events", []string{"id", "grp", "val", "items"})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetTargetPartitionBytes(512) // force frequent sealing
	for i := 0; i < 500; i++ {
		items := "[]"
		if i%3 != 0 {
			items = fmt.Sprintf("[%d, %d, %d]", i, i*2, i*3)
		}
		doc := fmt.Sprintf(`{"id": %d, "grp": %d, "val": %g, "items": %s}`,
			i, i%7, float64(i%50)/3.0, items)
		if err := tab.AppendObject(variant.MustParseJSON(doc)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func renderRows(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			b.WriteString(v.JSON())
			b.WriteByte('\t')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

var parityQueries = []string{
	`SELECT id, val FROM events WHERE grp = 3`,
	`SELECT grp, COUNT(*), MIN(val), MAX(val) FROM events GROUP BY grp`,
	`SELECT COUNT(*) FROM events WHERE val > 10`,
	`SELECT SUM(val) FROM events`,
	`SELECT "id", "f".VALUE FROM (SELECT * FROM "events" WHERE "grp" < 3), LATERAL FLATTEN(INPUT => "items") AS "f"`,
	`SELECT "id", "f".VALUE FROM (SELECT * FROM "events"), LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f" WHERE "id" < 20`,
	`SELECT id FROM events ORDER BY val DESC LIMIT 17`,
	`SELECT grp, SUM(val) FROM events GROUP BY grp ORDER BY grp`,
	`SELECT "id", "oid" FROM (SELECT * FROM "events" WHERE "id" < 7) CROSS JOIN (SELECT "id" AS "oid", "grp" AS "ogrp" FROM "events") WHERE "id" = "ogrp"`,
	`SELECT CASE WHEN val > 0 THEN 100 / val ELSE -1 END FROM events WHERE id < 40`,
}

// TestBatchSizeAndParallelismParity is the core regression for the
// vectorized executor: every configuration (batch size 1, 7, 1024; scans
// sequential and parallel) must return rows byte-identical to every other.
func TestBatchSizeAndParallelismParity(t *testing.T) {
	type config struct {
		name string
		opts []Option
	}
	configs := []config{
		{"bs1-seq", []Option{WithBatchSize(1), WithParallelism(1)}},
		{"bs7-seq", []Option{WithBatchSize(7), WithParallelism(1)}},
		{"bs1024-seq", []Option{WithBatchSize(1024), WithParallelism(1)}},
		{"bs1024-par4", []Option{WithBatchSize(1024), WithParallelism(4)}},
		{"bs3-par4", []Option{WithBatchSize(3), WithParallelism(4)}},
	}
	engines := make([]*Engine, len(configs))
	for i, c := range configs {
		engines[i] = multiPartEngine(t, c.opts...)
	}
	for _, sql := range parityQueries {
		var want string
		for i, c := range configs {
			res, err := engines[i].Query(sql)
			if err != nil {
				t.Fatalf("%s [%s]: %v", sql, c.name, err)
			}
			got := renderRows(res)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: config %s diverges from %s\ngot:\n%s\nwant:\n%s",
					sql, c.name, configs[0].name, got, want)
			}
		}
	}
}

// TestStableOrderByDuplicateKeys pins the ORDER BY tie-breaking contract:
// rows with equal sort keys come back in input order, for every batch size
// and with parallel scans (whose ordered merge must preserve input order).
func TestStableOrderByDuplicateKeys(t *testing.T) {
	for _, opts := range [][]Option{
		{WithBatchSize(1), WithParallelism(1)},
		{WithBatchSize(1024), WithParallelism(1)},
		{WithBatchSize(16), WithParallelism(4)},
	} {
		e := New(opts...)
		tab, err := e.Catalog().CreateTable("t", []string{"id", "k"})
		if err != nil {
			t.Fatal(err)
		}
		tab.SetTargetPartitionBytes(256)
		// Many duplicate keys: k cycles 0,1,2; id records insertion order.
		for i := 0; i < 200; i++ {
			if err := tab.Append([]variant.Value{variant.Int(int64(i)), variant.Int(int64(i % 3))}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Query(`SELECT id, k FROM t ORDER BY k`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 200 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
		prevK, prevID := int64(-1), int64(-1)
		for _, row := range res.Rows {
			id, k := row[0].AsInt(), row[1].AsInt()
			if k < prevK {
				t.Fatalf("sort order broken: k %d after %d", k, prevK)
			}
			if k == prevK && id < prevID {
				t.Fatalf("stability broken: id %d after %d within k=%d", id, prevID, k)
			}
			if k != prevK {
				prevID = -1
			}
			prevK, prevID = k, id
		}
	}
}

// TestLimitClosesParallelScan exercises early termination: LIMIT stops
// consuming while morsel workers are still producing; Close must shut the
// pool down without deadlock (the race detector guards the rest).
func TestLimitClosesParallelScan(t *testing.T) {
	e := multiPartEngine(t, WithBatchSize(4), WithParallelism(8))
	for i := 0; i < 10; i++ {
		res, err := e.Query(`SELECT id FROM events LIMIT 3`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
		// LIMIT over an unsorted scan surfaces stream order: with the
		// ordered merge this is the insertion order, deterministically.
		for j, row := range res.Rows {
			if row[0].AsInt() != int64(j) {
				t.Fatalf("row %d = %v; ordered merge broken", j, row)
			}
		}
	}
}

// TestUnorderedScanAnalysis checks the order-sensitivity analysis: only a
// global aggregate over order-insensitive aggregates may release its scan
// from the ordered merge.
func TestUnorderedScanAnalysis(t *testing.T) {
	e := multiPartEngine(t)
	cases := []struct {
		sql       string
		unordered bool
	}{
		{`SELECT COUNT(*), MIN(val), MAX(val) FROM events`, true},
		{`SELECT SUM(val) FROM events`, false},                   // float addition order matters
		{`SELECT grp, COUNT(*) FROM events GROUP BY grp`, false}, // first-seen group order
		{`SELECT id FROM events`, false},                         // root order observed
		{`SELECT COUNT(*) FROM events WHERE val > 1`, true},
	}
	for _, c := range cases {
		q, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		pl := &planner{catalog: e.Catalog()}
		plan, err := pl.Build(q)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		plan = optimize(plan)
		m := collectUnorderedScans(plan)
		got := len(m) > 0
		if got != c.unordered {
			t.Errorf("%s: unordered=%v, want %v", c.sql, got, c.unordered)
		}
	}
}

// TestFlattenAllocatesPerBatchNotPerRow pins the FLATTEN emit path: output
// rows go from the source batch straight into the builder's column vectors,
// so the allocations of an expansion are the output batches themselves (a
// header, one vector per column, the Batch) and nothing that scales with
// the row count.
func TestFlattenAllocatesPerBatchNotPerRow(t *testing.T) {
	const inRows, fanOut, batchSize, outWidth = 512, 8, 256, 4
	ids := make([]variant.Value, inRows)
	items := make([]variant.Value, inRows)
	for i := range ids {
		elems := make([]variant.Value, fanOut)
		for k := range elems {
			elems[k] = variant.Int(int64(i*fanOut + k))
		}
		ids[i], items[i] = variant.Int(int64(i)), variant.ArrayOf(elems)
	}
	src := &vector.Batch{Cols: [][]variant.Value{ids, items}}
	input := func(b *vector.Batch) ([]variant.Value, error) { return b.Cols[1], nil }

	var outRows, outBatches int
	var last *vector.Batch
	allocs := testing.AllocsPerRun(20, func() {
		it := &flattenIter{
			in: &countingIter{batches: []*vector.Batch{src}}, input: input,
			bld: vector.NewBuilder(outWidth, batchSize),
		}
		outRows, outBatches = 0, 0
		for {
			b, err := it.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			if b == nil {
				break
			}
			outRows += b.NumRows()
			outBatches++
			last = b
		}
		it.Close()
	})
	if outRows != inRows*fanOut || outBatches != inRows*fanOut/batchSize {
		t.Fatalf("flatten emitted %d rows in %d batches, want %d in %d", outRows, outBatches, inRows*fanOut, inRows*fanOut/batchSize)
	}
	if got := variant.Array(last.Row(batchSize-1, nil)...).JSON(); got != fmt.Sprintf(`[511,%s,4095,7]`, items[511].JSON()) {
		t.Fatalf("last output row = %s", got)
	}
	// Per output batch: the column-header slice, outWidth vectors, the Batch,
	// and a share of the builder's ready queue; plus a constant for the
	// iterator, builder and fake input themselves.
	if budget := float64(outBatches*(outWidth+3) + 8); allocs > budget {
		t.Errorf("flatten of %d rows into %d batches made %.0f allocations, want <= %.0f (no per-row allocation)",
			outRows, outBatches, allocs, budget)
	}
}
