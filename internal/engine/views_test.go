package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"jsonpark/internal/variant"
)

// viewLoad appends rows [lo,hi) into table "g" (k, v), sealing every 31 rows
// so appends span multiple micro-partitions.
func viewLoad(t *testing.T, e *Engine, lo, hi int) {
	t.Helper()
	tab, err := e.Catalog().Table("g")
	if err != nil {
		tab, err = e.Catalog().CreateTable("g", []string{"k", "v"})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := lo; i < hi; i++ {
		row := []variant.Value{variant.Int(int64(i % 7)), variant.Int(int64(i))}
		if err := tab.Append(row); err != nil {
			t.Fatal(err)
		}
		if (i+1)%31 == 0 {
			tab.Seal()
		}
	}
}

// itemLoad appends itemDocs rows [lo,hi) into table "t" (id, items), sealing
// every 37 rows.
func itemLoad(t *testing.T, e *Engine, lo, hi int) {
	t.Helper()
	tab, err := e.Catalog().Table("t")
	if err != nil {
		tab, err = e.Catalog().CreateTable("t", []string{"id", "items"})
		if err != nil {
			t.Fatal(err)
		}
	}
	docs := itemDocs(hi)
	for i := lo; i < hi; i++ {
		if err := tab.AppendObject(variant.MustParseJSON(docs[i])); err != nil {
			t.Fatal(err)
		}
		if (i+1)%37 == 0 {
			tab.Seal()
		}
	}
}

// TestViewIncrementalParity is the views half of the acceptance grid: across
// batch sizes and typed storage, an incrementally refreshed view must render
// byte-identically to cold recomputation of the same query, after every
// interleaved append — while scanning only the delta partitions. The FLATTEN
// view's aggregate reads an exchange, whose segment each refresh replays.
// The governed cells refresh under a memory limit that makes every refresh
// spill and report its cost; the poisoned cells overwrite recycled batch
// storage before reuse, so retained view state that aliases a batch shows.
func TestViewIncrementalParity(t *testing.T) {
	views := []struct {
		prefix, q   string
		load        func(*testing.T, *Engine, int, int)
		checkpoints []int
		exchange    bool
	}{
		{"", `SELECT "k", COUNT(*) AS n, MIN("v") AS mn, MAX("v") AS mx, ARRAY_AGG("v") AS vs FROM "g" GROUP BY "k" ORDER BY "k"`,
			viewLoad, []int{60, 130, 131, 240}, false},
		{"flatten-", `SELECT "f".VALUE % 5 AS "k", COUNT(*) AS "n", MAX("id") AS "mx" FROM (SELECT * FROM "t"), LATERAL FLATTEN(INPUT => "items") AS "f" GROUP BY "f".VALUE % 5 ORDER BY "k"`,
			itemLoad, []int{100, 250, 400}, true},
	}
	type cell struct {
		name     string
		batch    int
		typed    bool
		memLimit int64
		poison   bool
	}
	var cells []cell
	for _, batch := range []int{1, 1024} {
		for _, typed := range []bool{true, false} {
			cells = append(cells, cell{name: fmt.Sprintf("bs%d-typed%v", batch, typed), batch: batch, typed: typed})
		}
	}
	cells = append(cells,
		cell{name: "governed-bs1024", batch: 1024, typed: true, memLimit: 256},
		cell{name: "poisoned-bs1", batch: 1, typed: true, poison: true},
		cell{name: "poisoned-bs1024", batch: 1024, typed: true, poison: true},
	)
	for _, vw := range views {
		checkpoints := vw.checkpoints
		for _, c := range cells {
			t.Run(vw.prefix+c.name, func(t *testing.T) {
				if c.poison {
					poisonRecycling(t)
				}
				e := New(WithBatchSize(c.batch), WithTypedColumns(c.typed), WithMemLimit(c.memLimit))
				vw.load(t, e, 0, checkpoints[0])
				if err := e.CreateView("byk", vw.q); err != nil {
					t.Fatal(err)
				}
				if _, ok := e.views.views["byk"].agg.Input.(*ExchangeNode); ok != vw.exchange {
					t.Fatalf("aggregate input is %T, want an exchange: %v", e.views.views["byk"].agg.Input, vw.exchange)
				}
				prev := checkpoints[0]
				for _, hi := range checkpoints {
					vw.load(t, e, prev, hi)
					prev = hi
					got, err := e.QueryView(context.Background(), "byk")
					if err != nil {
						t.Fatal(err)
					}
					// Cold oracle: a fresh, ungoverned engine over exactly the
					// same rows.
					cold := New(WithBatchSize(c.batch), WithTypedColumns(c.typed))
					vw.load(t, cold, 0, hi)
					want, err := cold.Query(vw.q)
					if err != nil {
						t.Fatal(err)
					}
					if renderRows(got) != renderRows(want) {
						t.Fatalf("at %d rows: view diverges from cold recompute:\n got %s\nwant %s",
							hi, clipDiff(renderRows(got)), clipDiff(renderRows(want)))
					}
					if m := got.Metrics; c.memLimit > 0 && (m.Spills == 0 || m.ExecTime <= 0 || m.MemLimitBytes != c.memLimit || m.MemPeakBytes <= 0) {
						t.Fatalf("at %d rows: refresh under a %d-byte limit reports spills=%d exec=%v limit=%d peak=%d",
							hi, c.memLimit, m.Spills, m.ExecTime, m.MemLimitBytes, m.MemPeakBytes)
					}
				}
				// Incrementality: the summed delta partitions across refreshes
				// must equal the final partition count — each partition scanned
				// exactly once, never re-scanned.
				info := e.ViewInfos()[0]
				if info.DeltaParts != int64(info.PartsDone) {
					t.Fatalf("delta partitions %d != absorbed watermark %d (partitions re-scanned?)",
						info.DeltaParts, info.PartsDone)
				}
				if info.Refreshes != int64(len(checkpoints)) {
					t.Fatalf("refreshes = %d, want %d", info.Refreshes, len(checkpoints))
				}
			})
		}
	}
}

// TestViewRefreshDrawsFromGovernorPool: a refresh charges the governor's
// shared pool like a query does, spills under its pressure with rows equal
// to the cold query's, and gives every byte back when it returns.
func TestViewRefreshDrawsFromGovernorPool(t *testing.T) {
	const q = `SELECT "k", COUNT(*) AS n, ARRAY_AGG("v") AS vs FROM "g" GROUP BY "k" ORDER BY "k"`
	gov := NewGovernor(GovernorConfig{MemLimit: 256})
	e := New(WithGovernor(gov))
	viewLoad(t, e, 0, 0)
	if err := e.CreateView("byk", q); err != nil {
		t.Fatal(err)
	}
	for _, hi := range []int{100, 200} {
		viewLoad(t, e, hi-100, hi)
		got, err := e.QueryView(context.Background(), "byk")
		if err != nil {
			t.Fatal(err)
		}
		cold := New()
		viewLoad(t, cold, 0, hi)
		want, err := cold.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if renderRows(got) != renderRows(want) {
			t.Fatalf("at %d rows: governed view diverges from cold recompute", hi)
		}
		if got.Metrics.Spills == 0 {
			t.Fatalf("at %d rows: no spill under a 256-byte pool", hi)
		}
		if snap := gov.Snapshot(); snap.MemUsedBytes != 0 || snap.MemPeakBytes == 0 {
			t.Fatalf("at %d rows: pool used %d, peak %d after the refresh; want 0 and > 0", hi, snap.MemUsedBytes, snap.MemPeakBytes)
		}
	}
}

// TestViewRefreshCountsPartitions: a refresh reports the partitions it
// considered and pruned the way a query's scan does — the first refresh
// exactly what the cold query reports, a later one only its delta.
func TestViewRefreshCountsPartitions(t *testing.T) {
	const q = `SELECT "k", COUNT(*) AS n FROM "g" WHERE "v" >= 250 GROUP BY "k"`
	e := New()
	viewLoad(t, e, 0, 310)
	if err := e.CreateView("recent", q); err != nil {
		t.Fatal(err)
	}
	cold, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.QueryView(context.Background(), "recent")
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.PartitionsTotal != cold.Metrics.PartitionsTotal || got.Metrics.PartitionsPruned != cold.Metrics.PartitionsPruned {
		t.Fatalf("first refresh: total/pruned = %d/%d, cold query %d/%d",
			got.Metrics.PartitionsTotal, got.Metrics.PartitionsPruned,
			cold.Metrics.PartitionsTotal, cold.Metrics.PartitionsPruned)
	}
	if cold.Metrics.PartitionsPruned == 0 {
		t.Fatal("the cold query pruned nothing; the test proves nothing")
	}
	viewLoad(t, e, 310, 372) // two more partitions, none prunable
	got, err = e.QueryView(context.Background(), "recent")
	if err != nil {
		t.Fatal(err)
	}
	if got.Metrics.PartitionsTotal != 2 || got.Metrics.PartitionsPruned != 0 {
		t.Fatalf("delta refresh: total/pruned = %d/%d, want 2/0",
			got.Metrics.PartitionsTotal, got.Metrics.PartitionsPruned)
	}
}

// TestViewSuffixReplay covers the stateless operator chain above the
// aggregate: a filter + sort + limit suffix must replay byte-identically on
// every query, including after appends shuffle the group contents.
func TestViewSuffixReplay(t *testing.T) {
	const q = `SELECT "k", COUNT(*) AS n FROM "g" WHERE "v" >= 10 GROUP BY "k" ORDER BY n DESC, "k" LIMIT 3`
	e := New()
	viewLoad(t, e, 0, 80)
	if err := e.CreateView("top", q); err != nil {
		t.Fatal(err)
	}
	for _, hi := range []int{80, 150} {
		viewLoad(t, e, 0, 0) // no-op keeps the helper shape
		if hi > 80 {
			viewLoad(t, e, 80, hi)
		}
		got, err := e.QueryView(context.Background(), "top")
		if err != nil {
			t.Fatal(err)
		}
		cold := New()
		viewLoad(t, cold, 0, hi)
		want, err := cold.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if renderRows(got) != renderRows(want) {
			t.Fatalf("at %d rows: suffix replay diverges:\n got %s\nwant %s",
				hi, clipDiff(renderRows(got)), clipDiff(renderRows(want)))
		}
		if len(got.Rows) != 3 {
			t.Fatalf("LIMIT 3 returned %d rows", len(got.Rows))
		}
	}
}

// TestViewEmptyGlobalAggregate pins the one-row rule: a global aggregate
// view over an empty (and then emptied-of-matches) input emits exactly one
// row, same as the cold query.
func TestViewEmptyGlobalAggregate(t *testing.T) {
	e := New()
	if _, err := e.Catalog().CreateTable("g", []string{"k", "v"}); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT COUNT(*) AS n, MAX("v") AS mx FROM "g"`
	if err := e.CreateView("tot", q); err != nil {
		t.Fatal(err)
	}
	got, err := e.QueryView(context.Background(), "tot")
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(got) != renderRows(want) {
		t.Fatalf("empty global aggregate:\n got %s\nwant %s", renderRows(got), renderRows(want))
	}
	if len(got.Rows) != 1 || got.Rows[0][0].AsInt() != 0 {
		t.Fatalf("want one zero-count row, got %v", got.Rows)
	}
	// The synthetic emit row must not pollute retained state: appends after
	// the empty emit still merge correctly.
	viewLoad(t, e, 0, 25)
	got2, err := e.QueryView(context.Background(), "tot")
	if err != nil {
		t.Fatal(err)
	}
	if got2.Rows[0][0].AsInt() != 25 || got2.Rows[0][1].AsInt() != 24 {
		t.Fatalf("post-append global aggregate = %v, want [25 24]", got2.Rows[0])
	}
}

// TestViewRejections: everything outside the mergeable fragment must be
// refused at registration, with an error naming the aggregate's verdict (or
// the suffix rule that failed).
func TestViewRejections(t *testing.T) {
	e := New()
	viewLoad(t, e, 0, 10)
	for _, tab := range [][]string{{"h", "k", "w"}, {"t", "id", "items"}} {
		if _, err := e.Catalog().CreateTable(tab[0], tab[1:]); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name, sql, wantErr string
	}{
		{"sum", `SELECT "k", SUM("v") AS s FROM "g" GROUP BY "k"`, "cannot merge incrementally: not mergeable: SUM"},
		{"avg", `SELECT AVG("v") AS a FROM "g"`, "cannot merge incrementally: not mergeable: AVG"},
		{"stateful-group", `SELECT SEQ8() AS r, COUNT(*) AS n FROM "g" GROUP BY SEQ8()`, "cannot merge incrementally: row id in group key"},
		{"stateful-suffix", `SELECT SEQ8() AS r, "n" FROM (SELECT COUNT(*) AS n FROM "g")`, "stateful projection above the aggregate"},
		{"join", `SELECT COUNT(*) AS n FROM (SELECT * FROM "g") LEFT OUTER JOIN (SELECT * FROM "h") ON "k" = "w"`, "cannot merge incrementally: input not a scan pipeline"},
		{"plain-scan", `SELECT "v" FROM "g"`, "maintainable"},
		{"row-id", `SELECT "rid", COUNT(*) AS n FROM ` + ridFlatT + ` GROUP BY "rid"`, "cannot merge incrementally: row id in input"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := e.CreateView("v_"+c.name, c.sql)
			if err == nil {
				t.Fatalf("view over %s was accepted", c.sql)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
	if names := e.ViewNames(); len(names) != 0 {
		t.Fatalf("rejected views leaked into the registry: %v", names)
	}
}

// TestViewRegistry covers the registration lifecycle: duplicate names,
// unknown lookups, introspection, and drop.
func TestViewRegistry(t *testing.T) {
	e := New()
	viewLoad(t, e, 0, 20)
	const q = `SELECT "k", COUNT(*) AS n FROM "g" GROUP BY "k" ORDER BY "k"`
	if err := e.CreateView("a", q); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateView("a", q); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate registration: err = %v", err)
	}
	if _, err := e.QueryView(context.Background(), "nope"); err == nil {
		t.Fatal("querying an unknown view succeeded")
	}
	if _, err := e.QueryView(context.Background(), "a"); err != nil {
		t.Fatal(err)
	}
	infos := e.ViewInfos()
	if len(infos) != 1 || infos[0].Name != "a" || infos[0].Table != "g" || infos[0].Groups != 7 {
		t.Fatalf("ViewInfos = %+v", infos)
	}
	if !e.DropView("a") || e.DropView("a") {
		t.Fatal("DropView existence reporting is wrong")
	}
	if names := e.ViewNames(); len(names) != 0 {
		t.Fatalf("views after drop: %v", names)
	}
}

// TestViewQueryCancellation: a cancelled context aborts the refresh.
func TestViewQueryCancellation(t *testing.T) {
	e := New()
	viewLoad(t, e, 0, 200)
	const q = `SELECT "k", COUNT(*) AS n FROM "g" GROUP BY "k"`
	if err := e.CreateView("c", q); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.QueryView(ctx, "c"); err == nil {
		t.Fatal("cancelled refresh succeeded")
	}
	// The failed refresh must not have corrupted the watermark: a live
	// context still produces the right answer.
	got, err := e.QueryView(context.Background(), "c")
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.Query(q + ` ORDER BY "k"`)
	if err != nil {
		t.Fatal(err)
	}
	// The view has no ORDER BY; compare as sets via group count and total.
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("post-cancel view has %d groups, want %d", len(got.Rows), len(want.Rows))
	}
	var sum, wantSum int64
	for _, r := range got.Rows {
		sum += r[1].AsInt()
	}
	for _, r := range want.Rows {
		wantSum += r[1].AsInt()
	}
	if sum != wantSum {
		t.Fatalf("post-cancel view total = %d, want %d", sum, wantSum)
	}
}

// TestViewFollowsRecreatedTable: a view follows its table's identity, the
// query cache's rule. After the table is dropped and recreated under the
// same name with other rows, the view equals the cold query over the new
// rows; after a drop alone, reading the view is an error naming the table.
func TestViewFollowsRecreatedTable(t *testing.T) {
	const q = `SELECT "k", COUNT(*) AS n, MIN("v") AS mn, MAX("v") AS mx FROM "g" GROUP BY "k" ORDER BY "k"`
	for _, par := range []int{1, 4} {
		for _, typed := range []bool{true, false} {
			t.Run(fmt.Sprintf("par%d-typed%v", par, typed), func(t *testing.T) {
				opts := []Option{WithParallelism(par), WithTypedColumns(typed)}
				e := New(opts...)
				viewLoad(t, e, 0, 100)
				if err := e.CreateView("byk", q); err != nil {
					t.Fatal(err)
				}
				if _, err := e.QueryView(context.Background(), "byk"); err != nil {
					t.Fatal(err)
				}
				e.Catalog().DropTable("g")
				viewLoad(t, e, 500, 560)
				got, err := e.QueryView(context.Background(), "byk")
				if err != nil {
					t.Fatal(err)
				}
				cold := New(opts...)
				viewLoad(t, cold, 500, 560)
				want, err := cold.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if renderRows(got) != renderRows(want) {
					t.Fatalf("view over the recreated table diverges from the cold query:\n got %s\nwant %s",
						renderRows(got), renderRows(want))
				}
				e.Catalog().DropTable("g")
				if _, err := e.QueryView(context.Background(), "byk"); err == nil || !strings.Contains(err.Error(), `"g"`) {
					t.Fatalf("view over a dropped table: err = %v, want one naming table \"g\"", err)
				}
			})
		}
	}
}
