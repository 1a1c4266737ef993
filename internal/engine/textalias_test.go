package engine

import (
	"fmt"
	"strings"
	"testing"

	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
)

// fixedTranslation is a frontend stand-in: every call translates to sql over
// the catalog's current tables under names, and counts itself.
func fixedTranslation(t *testing.T, e *Engine, calls *int, sql string, names ...string) func() (*Translation, error) {
	return func() (*Translation, error) {
		*calls++
		tr := &Translation{SQL: sql, Facts: sql}
		for _, n := range names {
			tab, err := e.Catalog().Table(n)
			if err != nil {
				t.Fatal(err)
			}
			tr.Tables = append(tr.Tables, tab)
		}
		return tr, nil
	}
}

// runText prepares and runs key through PrepareText.
func runText(t *testing.T, e *Engine, key string, translate func() (*Translation, error)) (*Result, *Translation) {
	t.Helper()
	p, tr, err := e.PrepareText(key, PrepareOptions{}, translate)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, tr
}

// checkAliases asserts the alias map's invariants: every alias names an
// entry that names it back, and there are no more aliases than entries.
func checkAliases(t *testing.T, c *queryCache) int {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, el := range c.aliases {
		if got := el.Value.(*queryEntry).alias; got != key {
			t.Fatalf("alias %q points at an entry whose alias is %q", key, got)
		}
	}
	if len(c.aliases) > c.lru.Len() || c.lru.Len() > c.size {
		t.Fatalf("%d aliases over %d entries, cap %d", len(c.aliases), c.lru.Len(), c.size)
	}
	return len(c.aliases)
}

func TestTextAliasSkipsTranslation(t *testing.T) {
	e := rcEngine(t)
	calls := 0
	const sql = `SELECT "v" FROM "c" WHERE "k" = 3 ORDER BY "v"`
	tx := fixedTranslation(t, e, &calls, sql, "c")
	r1, _ := runText(t, e, "q", tx)
	r2, tr := runText(t, e, "q", tx)
	if calls != 1 {
		t.Fatalf("translate ran %d times, want 1", calls)
	}
	if tr == nil || tr.Facts != sql {
		t.Fatalf("text hit returned translation %+v, want the first one's", tr)
	}
	if r1.Metrics.TextCacheHit || !r2.Metrics.TextCacheHit || !r2.Metrics.PlanCacheHit || !r2.Metrics.ResultCacheHit {
		t.Fatalf("metrics: first %+v, second %+v", r1.Metrics, r2.Metrics)
	}
	if renderRows(r1) != renderRows(r2) {
		t.Fatal("a text hit's rows differ from the miss's")
	}
	if hits, misses, _, entries := e.PlanCacheStats(); hits != 1 || misses != 1 || entries != 1 {
		t.Fatalf("plan cache hits/misses/entries = %d/%d/%d, want 1/1/1", hits, misses, entries)
	}
}

// TestTextAliasBoundedByEntryCap pins that each entry holds at most one
// alias: ten times the cap of whitespace variants of one text leave one
// alias (the last), and as many distinct texts leave no more aliases than
// entries.
func TestTextAliasBoundedByEntryCap(t *testing.T) {
	const size = 4
	e := cacheEngine(t, WithPlanCacheSize(size))
	calls := 0
	tx := fixedTranslation(t, e, &calls, `SELECT COUNT(*) AS n FROM "c"`, "c")
	for i := 0; i < 10*size; i++ {
		runText(t, e, "q"+strings.Repeat(" ", i), tx)
	}
	if n := checkAliases(t, e.cache); n != 1 {
		t.Fatalf("%d aliases after whitespace variants of one text, want 1", n)
	}
	last := "q" + strings.Repeat(" ", 10*size-1)
	if res, _ := runText(t, e, last, tx); !res.Metrics.TextCacheHit {
		t.Fatal("the last variant lost its alias")
	}
	for i := 0; i < 10*size; i++ {
		sql := fmt.Sprintf(`SELECT COUNT(*) AS n FROM "c" WHERE "v" > %d`, i)
		runText(t, e, fmt.Sprintf("q%d", i), fixedTranslation(t, e, &calls, sql, "c"))
		checkAliases(t, e.cache)
	}
	if n := checkAliases(t, e.cache); n != size {
		t.Fatalf("%d aliases after %d distinct texts, want %d", n, 10*size, size)
	}
}

// TestTextAliasGoesStaleWithItsTables pins that an alias dies with its
// entry: after the table is dropped and recreated, the text translates
// again and answers over the new table.
func TestTextAliasGoesStaleWithItsTables(t *testing.T) {
	e := rcEngine(t)
	calls := 0
	tx := fixedTranslation(t, e, &calls, `SELECT COUNT(*) AS n FROM "c"`, "c")
	if res, _ := runText(t, e, "q", tx); renderRows(res) != "200\t\n" {
		t.Fatalf("rows = %s", renderRows(res))
	}
	e.Catalog().DropTable("c")
	tab, err := e.Catalog().CreateTable("c", []string{"k", "v", "w"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append([]variant.Value{variant.Int(1), variant.Int(2), variant.Int(3)}); err != nil {
		t.Fatal(err)
	}
	res, _ := runText(t, e, "q", tx)
	if calls != 2 || res.Metrics.TextCacheHit {
		t.Fatalf("translate ran %d times, text hit %v: want a re-translation", calls, res.Metrics.TextCacheHit)
	}
	if renderRows(res) != "1\t\n" {
		t.Fatalf("rows over the recreated table = %s, want 1", renderRows(res))
	}
	if res, _ := runText(t, e, "q", tx); !res.Metrics.TextCacheHit || calls != 2 {
		t.Fatal("the re-translated text was not aliased again")
	}
}

// TestTextAliasNeedsTheTranslatedTables pins the alias guard: a table
// recreated between translation and compile leaves the text unaliased, since
// the translation read the old table's columns.
func TestTextAliasNeedsTheTranslatedTables(t *testing.T) {
	e := cacheEngine(t)
	calls := 0
	tx := func() (*Translation, error) {
		calls++
		old, err := e.Catalog().Table("c")
		if err != nil {
			return nil, err
		}
		if calls == 1 {
			e.Catalog().DropTable("c")
			if _, err := e.Catalog().CreateTable("c", []string{"k", "v"}); err != nil {
				return nil, err
			}
		}
		return &Translation{SQL: `SELECT COUNT(*) AS n FROM "c"`, Tables: []*storage.Table{old}}, nil
	}
	runText(t, e, "q", tx)
	if n := checkAliases(t, e.cache); n != 0 {
		t.Fatalf("%d aliases after a translation over a replaced table, want 0", n)
	}
	runText(t, e, "q", tx)
	if calls != 2 {
		t.Fatalf("translate ran %d times, want 2", calls)
	}
	if res, _ := runText(t, e, "q", tx); !res.Metrics.TextCacheHit || calls != 2 {
		t.Fatal("a translation over the current table was not aliased")
	}
}

// TestResultCacheItemsEncodedOnce pins the result half's encoded items: the
// miss that attached them and every hit return the same bytes, equal to a
// fresh encoding, and a caller mutating a hit's rows changes neither the
// next hit's rows nor its bytes.
func TestResultCacheItemsEncodedOnce(t *testing.T) {
	e := rcEngine(t)
	const q = `SELECT "v" FROM "c" WHERE "k" = 3 ORDER BY "v"`
	r1, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := appendItems(nil, r1.Rows)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := renderRows(r1)
	shared, _ := r1.ItemsJSON()
	for i := 0; i < 3; i++ {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Metrics.ResultCacheHit {
			t.Fatalf("run %d missed", i+2)
		}
		got, err := res.ItemsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) || renderRows(res) != wantRows {
			t.Fatalf("hit %d: items %s rows %s, want %s and %s", i+1, got, renderRows(res), want, wantRows)
		}
		if &got[0] != &shared[0] {
			t.Fatalf("hit %d encoded its items again instead of sharing the cache's bytes", i+1)
		}
		res.Rows[0][0] = variant.String("scribbled")
		res.Rows = res.Rows[:1]
	}
	if got, _ := r1.ItemsJSON(); string(got) != string(want) {
		t.Fatalf("the miss's items = %s, want %s", got, want)
	}
	_, _, _, _, _, bytes := e.ResultCacheStats()
	if min := rowsBytes(r1.Rows) + int64(len(want)); bytes < min {
		t.Fatalf("resident bytes %d do not count the encoded items (want >= %d)", bytes, min)
	}
}

func TestItemsJSONNeedsOneColumn(t *testing.T) {
	e := cacheEngine(t)
	res, err := e.Query(`SELECT "k", "v" FROM "c" LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.ItemsJSON(); err == nil {
		t.Fatal("ItemsJSON accepted a two-column result")
	}
}
