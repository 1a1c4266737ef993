package engine

import (
	"errors"
	"fmt"
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

// TestPlanCacheCatalogInvalidation pins the version fence: DDL must drop
// cached plans, while appends must not.
func TestPlanCacheCatalogInvalidation(t *testing.T) {
	e := cacheEngine(t)
	const q = `SELECT COUNT(*) AS n FROM "c"`
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	if hits, _, _, _ := e.PlanCacheStats(); hits != 1 {
		t.Fatalf("hits = %d before DDL, want 1", hits)
	}

	// DDL bumps the catalog version and clears the cache.
	if _, err := e.Catalog().CreateTable("other", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.PlanCacheHit {
		t.Fatal("plan survived a CreateTable")
	}
	e.Catalog().DropTable("other")
	res, err = e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.PlanCacheHit {
		t.Fatal("plan survived a DropTable")
	}

	// Appended rows must be visible through a cached plan without any
	// invalidation: scans re-read Partitions() at bind time.
	tab, err := e.Catalog().Table("c")
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.Query(q)
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
	if renderRows(before) == renderRows(after) {
		t.Fatal("cached plan did not observe the appended row")
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
// table's version and partition list are unchanged, and so is the catalog's.
func TestCompileNeverTouchesStorage(t *testing.T) {
	e := New(WithParallelism(4))
	tab := growingTable(t, e)
	appendRows(t, tab, 300, 310) // buffered, unsealed
	seals := 0
	e.Catalog().SetMutationHook(func(string) { seals++ })
	version, catVersion := tab.Version(), e.Catalog().Version()
	if _, err := e.compile(`SELECT "k", COUNT(*) FROM "s" GROUP BY "k"`, PrepareOptions{}); err != nil {
		t.Fatal(err)
	}
	if seals != 0 || tab.Version() != version || e.Catalog().Version() != catVersion {
		t.Fatalf("compile sealed %d partition(s): table version %d → %d, catalog %d → %d",
			seals, version, tab.Version(), catVersion, e.Catalog().Version())
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
