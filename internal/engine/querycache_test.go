package engine

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
)

// cacheEngine builds a small two-partition table so cached plans exercise
// scans, filters, aggregation and sort.
func cacheEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e := New(opts...)
	tab, err := e.Catalog().CreateTable("c", []string{"k", "v"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tab.Append([]variant.Value{
			variant.Int(int64(i % 7)),
			variant.Int(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
		if i == 99 {
			tab.Seal()
		}
	}
	tab.Seal()
	return e
}

func TestPlanCacheHitMissAndStats(t *testing.T) {
	e := cacheEngine(t)
	const q = `SELECT "k", COUNT(*) AS n FROM "c" GROUP BY "k" ORDER BY "k"`

	r1, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Metrics.PlanCacheHit {
		t.Fatal("first run reported a plan-cache hit")
	}
	r2, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Metrics.PlanCacheHit {
		t.Fatal("second run did not report a plan-cache hit")
	}
	if renderRows(r1) != renderRows(r2) {
		t.Fatal("cached run diverges from the compile run")
	}
	hits, misses, evictions, entries := e.PlanCacheStats()
	if hits != 1 || misses != 1 || evictions != 0 || entries != 1 {
		t.Fatalf("stats = %d hits, %d misses, %d evictions, %d entries; want 1/1/0/1",
			hits, misses, evictions, entries)
	}

	// Prepare alone (no run) also hits: the cache serves compilation, not
	// execution.
	if _, err := e.PrepareOpts(q, PrepareOptions{}); err != nil {
		t.Fatal(err)
	}
	hits, _, _, _ = e.PlanCacheStats()
	if hits != 2 {
		t.Fatalf("hits = %d after third prepare, want 2", hits)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	e := cacheEngine(t, WithPlanCacheSize(-1))
	const q = `SELECT COUNT(*) AS n FROM "c"`
	for i := 0; i < 3; i++ {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.PlanCacheHit {
			t.Fatalf("run %d hit a cache that should be disabled", i+1)
		}
	}
	if hits, misses, _, entries := e.PlanCacheStats(); hits != 0 || misses != 0 || entries != 0 {
		t.Fatalf("disabled cache reported activity: %d hits, %d misses, %d entries", hits, misses, entries)
	}
}

// TestPlanCacheCatalogInvalidation: a cached plan stays current while the
// tables it scans are still the catalog's tables under their names. DDL on
// another table and appends to its own table keep it; dropping and recreating
// its table misses it, and the recompiled plan reads the new table's rows.
func TestPlanCacheCatalogInvalidation(t *testing.T) {
	e := cacheEngine(t)
	const q = `SELECT COUNT(*) AS n FROM "c"`
	for i := 0; i < 2; i++ {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _, _, _ := e.PlanCacheStats(); hits != 1 {
		t.Fatalf("hits = %d before DDL, want 1", hits)
	}

	// DDL on an unrelated table leaves the plan over "c" current.
	if _, err := e.Catalog().CreateTable("other", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.PlanCacheHit {
		t.Fatal("CreateTable of an unrelated table evicted the plan")
	}
	e.Catalog().DropTable("other")
	res, err = e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.PlanCacheHit {
		t.Fatal("DropTable of an unrelated table evicted the plan")
	}

	// Appended rows must be visible through a cached plan without any
	// invalidation: scans re-read Partitions() at bind time.
	tab, err := e.Catalog().Table("c")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append([]variant.Value{variant.Int(1), variant.Int(999)}); err != nil {
		t.Fatal(err)
	}
	after, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !after.Metrics.PlanCacheHit {
		t.Fatal("append invalidated the cached plan")
	}
	if renderRows(res) == renderRows(after) {
		t.Fatal("cached plan did not observe the appended row")
	}

	// Dropping and recreating "c" makes the plan stale: the next run
	// recompiles against the new table and counts a miss.
	_, missesBefore, _, _ := e.PlanCacheStats()
	e.Catalog().DropTable("c")
	fresh, err := e.Catalog().CreateTable("c", []string{"k", "v"})
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, fresh, 0, 5)
	fresh.Seal()
	res, err = e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.PlanCacheHit {
		t.Fatal("plan over a dropped table survived its recreation")
	}
	if _, misses, _, _ := e.PlanCacheStats(); misses != missesBefore+1 {
		t.Fatalf("misses = %d after recreate, want %d", misses, missesBefore+1)
	}
	if got := renderRows(res); got != "5\t\n" {
		t.Fatalf("recompiled plan read %q, want the recreated table's 5 rows", got)
	}
}

// growingTable creates table "s" holding one sealed partition of 300 rows.
func growingTable(t *testing.T, e *Engine) *storage.Table {
	t.Helper()
	tab, err := e.Catalog().CreateTable("s", []string{"k", "v"})
	if err != nil {
		t.Fatal(err)
	}
	appendRows(t, tab, 0, 300)
	tab.Seal()
	return tab
}

func appendRows(t *testing.T, tab *storage.Table, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := tab.Append([]variant.Value{variant.Int(int64(i % 7)), variant.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanCacheSurvivesPartitionGrowth: a plan cached while its table had
// one partition is still served after a second one seals, and its aggregate
// then fans out — the decision is the run's, not the plan's — with the
// sequential engine's result.
func TestPlanCacheSurvivesPartitionGrowth(t *testing.T) {
	e := New(WithParallelism(4), planChecked())
	ref := New(WithParallelism(1))
	tab, refTab := growingTable(t, e), growingTable(t, ref)
	const q = `SELECT "k", COUNT(*) AS n, MIN("v") AS mn, ARRAY_AGG("v") AS vs FROM "s" GROUP BY "k"`
	for run := 1; run <= 2; run++ {
		res, _, st := hashAgg(t, e, q)
		if res.Metrics.PlanCacheHit != (run == 2) || st.Sequential != "one partition" {
			t.Fatalf("run %d: plan-cache hit %v, sequential %q", run, res.Metrics.PlanCacheHit, st.Sequential)
		}
	}
	appendRows(t, tab, 300, 600)
	appendRows(t, refTab, 300, 600)
	tab.Seal()
	refTab.Seal()
	res, agg, _ := hashAgg(t, e, q)
	if !res.Metrics.PlanCacheHit {
		t.Fatal("the second partition's seal evicted the cached plan")
	}
	if agg.Pipelines == 0 {
		t.Fatalf("the cached plan's aggregate did not fan out over two partitions: %q", agg.Detail)
	}
	want, err := ref.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(res) != renderRows(want) {
		t.Fatalf("fanned-out run diverges from parallelism 1\ngot:\n%s\nwant:\n%s", renderRows(res), renderRows(want))
	}
}

// TestCompileNeverTouchesStorage: compiling a query whose aggregate may fan
// out reads nothing from storage — the buffered rows stay unsealed, so the
// table's version does not move, and the first snapshot after the compile is
// the one that seals them into a second partition.
func TestCompileNeverTouchesStorage(t *testing.T) {
	e := New(WithParallelism(4))
	tab := growingTable(t, e)
	appendRows(t, tab, 300, 310) // buffered, unsealed
	version := tab.Version()
	if _, err := e.compile(`SELECT "k", COUNT(*) FROM "s" GROUP BY "k"`, PrepareOptions{}); err != nil {
		t.Fatal(err)
	}
	if v := tab.Version(); v != version {
		t.Fatalf("compile sealed the buffered rows: table version %d → %d", version, v)
	}
	if snap := tab.Snapshot(); len(snap.Parts) != 2 || snap.Version == version {
		t.Fatalf("first snapshot after compile: %d partition(s) at version %d (compile saw %d); want the buffered rows sealed by it into partition 2",
			len(snap.Parts), snap.Version, version)
	}
}

func TestPlanCacheBoundedWithEvictions(t *testing.T) {
	e := cacheEngine(t, WithPlanCacheSize(4))
	for i := 0; i < 20; i++ {
		q := fmt.Sprintf(`SELECT COUNT(*) AS n FROM "c" WHERE "v" > %d`, i)
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, evictions, entries := e.PlanCacheStats()
	if entries > 4 {
		t.Fatalf("cache holds %d entries, cap is 4", entries)
	}
	if evictions != misses-entries {
		t.Fatalf("evictions = %d, want misses-entries = %d", evictions, misses-entries)
	}
	if hits != 0 {
		t.Fatalf("hits = %d for 20 distinct queries, want 0", hits)
	}
	// LRU: the most recent distinct query must still be resident.
	res, err := e.Query(`SELECT COUNT(*) AS n FROM "c" WHERE "v" > 19`)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.PlanCacheHit {
		t.Fatal("most recently inserted plan was evicted")
	}
}

func TestPreparedSingleUse(t *testing.T) {
	e := cacheEngine(t)
	p, err := e.Prepare(`SELECT COUNT(*) AS n FROM "c"`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); !errors.Is(err, ErrPreparedConsumed) {
		t.Fatalf("second Run error = %v, want ErrPreparedConsumed", err)
	}
}

// TestPlanCacheStress runs a hot/cold query mix from many goroutines under
// -race (make stress): every result must match the uncached reference
// byte-for-byte, and the cache must stay within its bound throughout.
func TestPlanCacheStress(t *testing.T) {
	cached := cacheEngine(t, WithPlanCacheSize(8), WithParallelism(2))
	uncached := cacheEngine(t, WithPlanCacheSize(-1), WithParallelism(2))
	queries := []string{
		`SELECT "k", COUNT(*) AS n, MIN("v") AS mn FROM "c" GROUP BY "k" ORDER BY "k"`,
		`SELECT "v" FROM "c" WHERE "k" = 3 ORDER BY "v" DESC`,
		`SELECT COUNT(*) AS n FROM "c" WHERE "v" > 50`,
		`SELECT "k", MAX("v") AS mx FROM "c" WHERE "v" < 150 GROUP BY "k" ORDER BY "k"`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := uncached.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = renderRows(res)
	}
	const workers = 8
	const iters = 30
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Hot mix plus per-worker cold queries that churn the LRU
				// past its bound while hot entries keep hitting.
				var q string
				var ref string
				if i%3 == 0 {
					q = fmt.Sprintf(`SELECT COUNT(*) AS n FROM "c" WHERE "v" >= %d`, w*100+i)
					ref = ""
				} else {
					q = queries[(w+i)%len(queries)]
					ref = want[(w+i)%len(queries)]
				}
				res, err := cached.Query(q)
				if err != nil {
					errc <- fmt.Errorf("worker %d: %s: %w", w, q, err)
					return
				}
				if ref != "" && renderRows(res) != ref {
					errc <- fmt.Errorf("worker %d: %s: rows diverge from uncached reference", w, q)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if _, _, _, entries := cached.PlanCacheStats(); entries > 8 {
		t.Fatalf("cache grew to %d entries under stress, cap is 8", entries)
	}
	if hits, _, _, _ := cached.PlanCacheStats(); hits == 0 {
		t.Fatal("stress mix never hit the cache")
	}
}

// rcBytes is the result budget the tests turn result caching on with.
const rcBytes = 64 << 20

// rcEngine is cacheEngine with result caching on.
func rcEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	return cacheEngine(t, append([]Option{WithResultCacheBytes(rcBytes)}, opts...)...)
}

func TestResultCacheHitMissAndStats(t *testing.T) {
	e := rcEngine(t)
	const q = `SELECT "k", COUNT(*) AS n FROM "c" GROUP BY "k" ORDER BY "k"`

	r1, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Metrics.ResultCacheHit {
		t.Fatal("first run reported a result-cache hit")
	}
	r2, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Metrics.ResultCacheHit {
		t.Fatal("second run did not report a result-cache hit")
	}
	if renderRows(r1) != renderRows(r2) {
		t.Fatal("cached rows diverge from the executed run")
	}
	if r2.Metrics.ExecTime != 0 {
		t.Fatalf("cache hit reports exec time %v, want 0 (execution skipped)", r2.Metrics.ExecTime)
	}
	hits, misses, evictions, invalidations, entries, bytes := e.ResultCacheStats()
	if hits != 1 || misses != 1 || evictions != 0 || invalidations != 0 || entries != 1 {
		t.Fatalf("stats = %d/%d/%d/%d/%d, want hits=1 misses=1 evictions=0 invalidations=0 entries=1",
			hits, misses, evictions, invalidations, entries)
	}
	if bytes <= 0 {
		t.Fatalf("resident bytes = %d, want > 0", bytes)
	}
}

func TestResultCacheDisabledByDefault(t *testing.T) {
	e := cacheEngine(t)
	const q = `SELECT COUNT(*) AS n FROM "c"`
	for i := 0; i < 3; i++ {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.ResultCacheHit {
			t.Fatalf("run %d hit a result cache that should be off", i+1)
		}
	}
	if h, m, _, _, n, _ := e.ResultCacheStats(); h != 0 || m != 0 || n != 0 {
		t.Fatalf("disabled cache reported activity: %d hits, %d misses, %d entries", h, m, n)
	}
}

// TestResultCacheMutatedRows pins the defensive copy: callers mutating the
// rows of a hit (or of the executed run that populated the cache) must not
// corrupt later hits.
func TestResultCacheMutatedRows(t *testing.T) {
	e := rcEngine(t)
	const q = `SELECT "k", COUNT(*) AS n FROM "c" GROUP BY "k" ORDER BY "k"`
	r1, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(r1)
	r1.Rows[0][0] = variant.Int(999) // caller scribbles on its result
	r2, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(r2) != want {
		t.Fatal("mutating a returned row corrupted the cached entry")
	}
	r2.Rows[1][1] = variant.Int(-1)
	r3, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(r3) != want {
		t.Fatal("mutating a cache hit's rows corrupted the cached entry")
	}
}

// TestResultCacheByteBudget pins the two capacity bounds: an oversized
// result is never cached, and inserts beyond the byte budget evict LRU
// entries.
func TestResultCacheByteBudget(t *testing.T) {
	// A budget far below any result's footprint: nothing is ever admitted.
	e := rcEngine(t, WithResultCacheBytes(8))
	const q = `SELECT COUNT(*) AS n FROM "c"`
	for i := 0; i < 2; i++ {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.ResultCacheHit {
			t.Fatal("a result larger than the whole budget was cached")
		}
	}
	if _, _, _, _, entries, _ := e.ResultCacheStats(); entries != 0 {
		t.Fatalf("entries = %d, want 0 (oversized results rejected)", entries)
	}

	// A budget that fits roughly one small result: inserting a second evicts
	// the first (LRU), observable via the evictions counter.
	const budget = 150
	e2 := rcEngine(t, WithResultCacheBytes(budget))
	queries := []string{
		`SELECT COUNT(*) AS n FROM "c"`,
		`SELECT MAX("v") AS mx FROM "c"`,
		`SELECT MIN("v") AS mn FROM "c"`,
	}
	for _, q := range queries {
		if _, err := e2.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	_, _, evictions, _, entries, bytes := e2.ResultCacheStats()
	if evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget after %d inserts", budget, len(queries))
	}
	if bytes > budget {
		t.Fatalf("resident bytes %d exceed the budget", bytes)
	}
	if entries < 1 {
		t.Fatal("byte-budget eviction emptied the cache entirely")
	}
}

// TestResultCacheInvalidationMatrix is the query cache's one staleness
// matrix. For each catalog mutation it pins whether the next run of a query
// over t1, prepared by its source text, hits the text alias, the plan and the
// result half of its entry, how many result halves the mutation made stale,
// and that the run and a view over t1, refreshed before the mutation, both
// equal a cold engine over t1's rows. The rule: a plan and the text's alias
// are current while its tables are still the catalog's tables under their
// names, a result while their pinned partition-set versions also match. So
// only append + seal and drop + recreate of t1 miss the result, only the
// recreate misses the plan and the alias, and DDL on other tables misses
// nothing.
func TestResultCacheInvalidationMatrix(t *testing.T) {
	const q = `SELECT COUNT(*) AS n, MAX("v") AS mx FROM "t1"`
	span := func(lo, hi int) []int {
		var vs []int
		for v := lo; v < hi; v++ {
			vs = append(vs, v)
		}
		return vs
	}
	// run prepares q under its text, translated over the current t1.
	run := func(t *testing.T, e *Engine) *Result {
		res, _ := runText(t, e, "text", func() (*Translation, error) {
			tab, err := e.Catalog().Table("t1")
			return &Translation{SQL: q, Tables: []*storage.Table{tab}}, err
		})
		return res
	}
	load := func(t *testing.T, e *Engine, name string, vals []int) {
		t.Helper()
		tab, err := e.Catalog().CreateTable(name, []string{"v"})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range vals {
			if err := tab.Append([]variant.Value{variant.Int(int64(v))}); err != nil {
				t.Fatal(err)
			}
			if i == 19 {
				tab.Seal()
			}
		}
		tab.Seal()
	}
	cases := []struct {
		name   string
		mutate func(t *testing.T, e *Engine)
		// t1 holds rows after the mutation.
		rows               []int
		planHit, resultHit bool
		invalidations      int64
	}{
		{
			name: "append-and-seal",
			mutate: func(t *testing.T, e *Engine) {
				tab, err := e.Catalog().Table("t1")
				if err != nil {
					t.Fatal(err)
				}
				if err := tab.Append([]variant.Value{variant.Int(40)}); err != nil {
					t.Fatal(err)
				}
				tab.Seal()
			},
			rows: span(0, 41), planHit: true, resultHit: false, invalidations: 1,
		},
		{
			name: "create-table",
			mutate: func(t *testing.T, e *Engine) {
				if _, err := e.Catalog().CreateTable("t3", []string{"x"}); err != nil {
					t.Fatal(err)
				}
			},
			rows: span(0, 40), planHit: true, resultHit: true,
		},
		{
			name:   "drop-table",
			mutate: func(t *testing.T, e *Engine) { e.Catalog().DropTable("t2") },
			rows:   span(0, 40), planHit: true, resultHit: true,
		},
		{
			// The stale plan is dropped with its result half, one invalidation;
			// the recompiled entry then has no rows to hit.
			name: "drop-recreate",
			mutate: func(t *testing.T, e *Engine) {
				e.Catalog().DropTable("t1")
				load(t, e, "t1", span(100, 130))
			},
			rows: span(100, 130), planHit: false, resultHit: false, invalidations: 1,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := New(WithResultCacheBytes(rcBytes))
			load(t, e, "t1", span(0, 40))
			load(t, e, "t2", span(0, 40))
			if err := e.CreateView("mv", q); err != nil {
				t.Fatal(err)
			}
			// Warm the alias, the plan, the result and the view's retained
			// state.
			run(t, e)
			run(t, e)
			if _, err := e.Query(`SELECT COUNT(*) AS n FROM "t2"`); err != nil {
				t.Fatal(err)
			}
			if _, err := e.QueryView(t.Context(), "mv"); err != nil {
				t.Fatal(err)
			}

			c.mutate(t, e)

			res := run(t, e)
			m := res.Metrics
			if m.TextCacheHit != c.planHit || m.PlanCacheHit != c.planHit || m.ResultCacheHit != c.resultHit {
				t.Errorf("text hit %v, plan hit %v, result hit %v; want %v, %v, %v",
					m.TextCacheHit, m.PlanCacheHit, m.ResultCacheHit, c.planHit, c.planHit, c.resultHit)
			}
			if _, _, _, inv, _, _ := e.ResultCacheStats(); inv != c.invalidations {
				t.Errorf("result invalidations = %d, want %d", inv, c.invalidations)
			}
			cold := New()
			load(t, cold, "t1", c.rows)
			want, err := cold.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			view, err := e.QueryView(t.Context(), "mv")
			if err != nil {
				t.Fatal(err)
			}
			if renderRows(res) != renderRows(want) || renderRows(view) != renderRows(want) {
				t.Fatalf("query %s, view %s; the cold engine says %s",
					renderRows(res), renderRows(view), renderRows(want))
			}
		})
	}
}

// TestResultColumnsAreCallersOwn: every Result.Columns is the caller's own
// slice. Scribbling on it after a miss, a plan hit or a result hit never
// changes the columns the next run of the text reports.
func TestResultColumnsAreCallersOwn(t *testing.T) {
	const q = `SELECT "k", COUNT(*) AS n FROM "c" GROUP BY "k"`
	for _, results := range []bool{false, true} {
		t.Run(fmt.Sprintf("results%v", results), func(t *testing.T) {
			var opts []Option
			if results {
				opts = append(opts, WithResultCacheBytes(rcBytes))
			}
			e := cacheEngine(t, opts...)
			for run := 0; run < 3; run++ {
				res, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				m := res.Metrics
				if run > 0 && (!m.PlanCacheHit || m.ResultCacheHit != results) {
					t.Fatalf("run %d: plan hit %v, result hit %v", run, m.PlanCacheHit, m.ResultCacheHit)
				}
				if got := strings.Join(res.Columns, ","); got != "k,n" {
					t.Fatalf("run %d (plan hit %v, result hit %v): columns %s, want k,n",
						run, m.PlanCacheHit, m.ResultCacheHit, got)
				}
				res.Columns[0] = "MUTATED"
			}
		})
	}
}

// TestResultCacheParityGrid is the acceptance grid: with the result cache on
// and appends interleaved between runs, every (parallelism × batch × typed)
// cell must render byte-identically to a cold engine that loaded all data up
// front — before the append (partial data), and after it (full data, cache
// invalidated).
func TestResultCacheParityGrid(t *testing.T) {
	queries := []string{
		`SELECT "k", COUNT(*) AS n, MAX("v") AS mx, ARRAY_AGG("v") AS vs FROM "g" GROUP BY "k" ORDER BY "k"`,
		`SELECT "v" FROM "g" WHERE "k" <> 2 ORDER BY "v" DESC LIMIT 50`,
		`SELECT COUNT(*) AS n, MIN("v") AS mn FROM "g"`,
	}
	row := func(i int) []variant.Value {
		return []variant.Value{variant.Int(int64(i % 5)), variant.Int(int64(i))}
	}
	load := func(t *testing.T, e *Engine, lo, hi int) {
		tab, err := e.Catalog().Table("g")
		if err != nil {
			tab, err = e.Catalog().CreateTable("g", []string{"k", "v"})
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := lo; i < hi; i++ {
			if err := tab.Append(row(i)); err != nil {
				t.Fatal(err)
			}
			if (i+1)%37 == 0 {
				tab.Seal()
			}
		}
	}
	// Cold oracles: fresh engines over exactly the partial and full data.
	oracle := func(t *testing.T, n int) []string {
		e := New()
		load(t, e, 0, n)
		out := make([]string, len(queries))
		for i, q := range queries {
			res, err := e.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = renderRows(res)
		}
		return out
	}
	const partial, full = 120, 200
	wantPartial := oracle(t, partial)
	wantFull := oracle(t, full)

	for _, par := range []int{1, 4} {
		for _, batch := range []int{1, 1024} {
			for _, typed := range []bool{true, false} {
				name := fmt.Sprintf("par%d-bs%d-typed%v", par, batch, typed)
				t.Run(name, func(t *testing.T) {
					e := New(WithParallelism(par), WithBatchSize(batch),
						WithTypedColumns(typed), WithResultCacheBytes(rcBytes))
					load(t, e, 0, partial)
					// Run twice over the partial data: second run must hit and
					// both must match the cold oracle.
					for pass := 0; pass < 2; pass++ {
						for qi, q := range queries {
							res, err := e.Query(q)
							if err != nil {
								t.Fatal(err)
							}
							if got := renderRows(res); got != wantPartial[qi] {
								t.Fatalf("pass %d query %d diverges from partial oracle:\n got %s\nwant %s",
									pass, qi, clipDiff(got), clipDiff(wantPartial[qi]))
							}
							if pass == 1 && !res.Metrics.ResultCacheHit {
								t.Fatalf("query %d second run missed the result cache", qi)
							}
						}
					}
					// Interleaved append: the next runs must see the new rows
					// (exact invalidation) and then hit again.
					load(t, e, partial, full)
					for pass := 0; pass < 2; pass++ {
						for qi, q := range queries {
							res, err := e.Query(q)
							if err != nil {
								t.Fatal(err)
							}
							if got := renderRows(res); got != wantFull[qi] {
								t.Fatalf("post-append pass %d query %d diverges from full oracle:\n got %s\nwant %s",
									pass, qi, clipDiff(got), clipDiff(wantFull[qi]))
							}
							if pass == 0 && res.Metrics.ResultCacheHit {
								t.Fatalf("query %d served stale cached rows across an append", qi)
							}
							if pass == 1 && !res.Metrics.ResultCacheHit {
								t.Fatalf("query %d did not re-cache after the append", qi)
							}
						}
					}
				})
			}
		}
	}
}

// TestResultCacheAnalyzeHit pins that a run under Analyze still hits the
// warmed result cache — slow-query capture forces Analyze on every query —
// and that such a hit carries no plan: bind found the rows before building
// an operator tree, so nothing executed and there is nothing to annotate.
func TestResultCacheAnalyzeHit(t *testing.T) {
	e := rcEngine(t)
	const q = `SELECT "k", COUNT(*) AS n FROM "c" GROUP BY "k" ORDER BY "k"`
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	p, err := e.PrepareOpts(q, PrepareOptions{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if p.iter != nil || p.ctx != nil {
		t.Fatal("a result-cache hit built an operator tree")
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Metrics.ResultCacheHit {
		t.Fatal("analyzed run missed the warmed result cache")
	}
	if ps := p.PlanStats(); ps != nil {
		t.Fatalf("PlanStats() on a result-cache hit = %s, want nil", ps.Render())
	}
}
