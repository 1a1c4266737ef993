package engine

// The query cache. A repeated query text reuses its compiled plan template
// (parse → plan → optimize → physicalize) and, with result caching on, its
// rows. Both halves live in one bounded LRU keyed on the query text, and both
// go stale by one rule: the identity of the tables they read.
//
// A template is a function of the text and of the table instances its scans
// were planned against — physicalize reads neither storage nor the engine's
// knobs, every data- or knob-dependent choice (which breakers fan out, how
// many workers) is made by the operators at bind or on their first batch,
// and the cache belongs to one engine, whose knobs never change. So an entry
// records those instances, and a plan is current while Catalog.Table still
// returns each of them under its name. DDL on one table leaves the plans over
// every other table standing; appends and seals never touch a plan, because
// bind pins the table's current partition set every run.
//
// A result is current while, in addition, the partition-set versions its run
// pinned still match the versions the new run pinned at bind. Versions come
// from a process-global clock, so a version match implies the same table
// instance and the same partitions, and the cached rows are byte-identical to
// what execution would produce. Staleness is found at lookup: nothing is
// evicted eagerly, and a stale result half is dropped when a lookup finds it.
// Materialized views follow the same rule (views.go).
//
// A frontend's source text is a second key of the same entry (PrepareText):
// an entry holds at most one such alias, with the frontend's record of the
// translation, and the alias lives and goes stale with its entry. That rule
// is enough because a translation reads only the column lists of the tables
// it names, and those are fixed per table instance; an alias is recorded
// only when the translation resolved exactly the instances the plan reads.
//
// Bounds: whole entries evict at the entry cap, their aliases with them;
// result halves alone evict, from the LRU end, once the resident result bytes
// pass the budget, and a result larger than the whole budget is never
// admitted. Rows are copied on insert and on hit: variant values are
// immutable, but the row slices are caller-visible and must not alias cache
// state. A single-column result half also keeps its items encoded once as one
// JSON array (Result.ItemsJSON), counted in its bytes; those bytes are
// shared, read-only, with every hit.

import (
	"container/list"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
)

// defaultPlanCacheSize bounds the cache when WithPlanCacheSize is not given.
const defaultPlanCacheSize = 128

// compiledPlan is the immutable output of the compile phase — everything
// Prepare produced before per-run iterator state. It is shared across
// concurrent binds, so nothing in it may be mutated after compile
// (physicalize mutates in place, but only during compile; schemas are
// pre-materialized so the lazy memo never races).
type compiledPlan struct {
	sql     string
	plan    Node
	columns []string
	// tables are the table instances the planner resolved the query's table
	// names to.
	tables []*storage.Table
}

// current reports whether every table the plan was planned against is still
// the catalog's table under its name. A name that no longer resolves returns
// the catalog's error.
func (cp *compiledPlan) current(cat *storage.Catalog) (bool, error) {
	for _, t := range cp.tables {
		cur, err := cat.Table(t.Name)
		if err != nil {
			return false, err
		}
		if cur != t {
			return false, nil
		}
	}
	return true, nil
}

// resultDep records one table a run read and the partition-set version it
// pinned.
type resultDep struct {
	table   string
	version int64
}

// cachedRows is an entry's result half: the rows one run of the entry's plan
// produced over the pinned versions deps, and, for a single-column plan, the
// same rows encoded as one JSON array. Never mutated once built, so a hit may
// read it after the lock is released.
type cachedRows struct {
	deps  []resultDep
	rows  [][]variant.Value
	items []byte
	bytes int64
}

type queryEntry struct {
	cp  *compiledPlan
	res *cachedRows // nil until a run of cp attaches its rows
	// alias is the one source-text key known to translate to cp.sql ("" for
	// none), and text that translation.
	alias string
	text  *Translation
}

// Translation is what a frontend produced for one source text: the SQL it
// translated to, the table instances it resolved while translating, and its
// own record of the translation (a report's facts), opaque to the engine.
type Translation struct {
	SQL    string
	Tables []*storage.Table
	Facts  any
}

// queryCache is the engine's bounded LRU of compiled plans and their results,
// keyed on the query text, with source-text aliases of its entries. Every
// field below mu is guarded by it.
type queryCache struct {
	size     int   // entry cap
	maxBytes int64 // resident result-byte budget; 0 keeps results off

	mu       sync.Mutex
	entries  map[string]*list.Element
	aliases  map[string]*list.Element // alias key → its entry; ≤ one per entry
	lru      *list.List               // front = most recently used
	results  int64                    // resident result halves
	resBytes int64

	planHits, planMisses, planEvictions              int64
	resHits, resMisses, resEvictions, resInvalidated int64
}

func newQueryCache(size int, maxBytes int64) *queryCache {
	return &queryCache{
		size:     size,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
		aliases:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// plan returns the cached template for sql when it is current, promoting its
// entry. A stale entry is dropped with its result half.
func (c *queryCache) plan(sql string, cat *storage.Catalog) *compiledPlan {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[sql]
	if ok {
		ent := el.Value.(*queryEntry)
		// A name that no longer resolves makes the entry stale too; the
		// recompile reports the error.
		if cur, _ := ent.cp.current(cat); cur {
			c.lru.MoveToFront(el)
			c.planHits++
			return ent.cp
		}
		c.removeLocked(el, &c.resInvalidated)
	}
	c.planMisses++
	return nil
}

// aliased returns the template and translation of the entry aliased by key
// when that entry is current, promoting it; an alias hit counts as a plan
// hit. A stale entry is dropped with its alias and result half, and the
// caller's SQL lookup then counts the miss.
func (c *queryCache) aliased(key string, cat *storage.Catalog) (*compiledPlan, *Translation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.aliases[key]
	if !ok {
		return nil, nil
	}
	ent := el.Value.(*queryEntry)
	if cur, _ := ent.cp.current(cat); !cur {
		c.removeLocked(el, &c.resInvalidated)
		return nil, nil
	}
	c.lru.MoveToFront(el)
	c.planHits++
	return ent.cp, ent.text
}

// alias makes key the alias of cp's entry, in place of the entry's previous
// alias and of key's previous entry — only while cp is still the template
// cached under its text, and only when tr resolved exactly the tables cp
// reads (a table recreated between translation and compile leaves the text
// unaliased).
func (c *queryCache) alias(key string, cp *compiledPlan, tr *Translation) {
	for _, t := range tr.Tables {
		if !slices.Contains(cp.tables, t) {
			return
		}
	}
	for _, t := range cp.tables {
		if !slices.Contains(tr.Tables, t) {
			return
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cp.sql]
	if !ok || el.Value.(*queryEntry).cp != cp {
		return
	}
	if prev, ok := c.aliases[key]; ok {
		c.unaliasLocked(prev.Value.(*queryEntry))
	}
	ent := el.Value.(*queryEntry)
	c.unaliasLocked(ent)
	ent.alias, ent.text = key, tr
	c.aliases[key] = el
}

func (c *queryCache) unaliasLocked(ent *queryEntry) {
	if ent.alias != "" {
		delete(c.aliases, ent.alias)
		ent.alias, ent.text = "", nil
	}
}

// insert caches a freshly compiled template, evicting least-recently-used
// entries past the cap. An entry already holding the text (a concurrent
// compile) takes the new template and keeps its result half, whose own
// pinned versions decide whether it is current; it drops its alias, which
// was checked against the old template's tables.
func (c *queryCache) insert(cp *compiledPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[cp.sql]; ok {
		ent := el.Value.(*queryEntry)
		ent.cp = cp
		c.unaliasLocked(ent)
		c.lru.MoveToFront(el)
		return
	}
	c.entries[cp.sql] = c.lru.PushFront(&queryEntry{cp: cp})
	for c.lru.Len() > c.size {
		c.removeLocked(c.lru.Back(), &c.resEvictions)
		c.planEvictions++
	}
}

// result returns the result half cached for sql when it was computed over
// exactly the pinned versions deps. A stale result half is dropped.
func (c *queryCache) result(sql string, deps []resultDep) *cachedRows {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[sql]; ok {
		ent := el.Value.(*queryEntry)
		if ent.res != nil && slices.Equal(ent.res.deps, deps) {
			c.lru.MoveToFront(el)
			c.resHits++
			return ent.res
		}
		if ent.res != nil {
			c.dropRowsLocked(ent)
			c.resInvalidated++
		}
	}
	c.resMisses++
	return nil
}

// attach stores a copy of rows, computed by a run of cp over the pinned
// versions deps, as the result half of cp's entry — only while cp is still
// the template cached under its text, so rows never outlive the plan that
// made them — and returns the copy's encoded items (nil when not cached or
// not a single column). Rows larger than the whole budget are not cached;
// otherwise result halves evict from the LRU end until the budget holds.
func (c *queryCache) attach(cp *compiledPlan, deps []resultDep, rows [][]variant.Value) []byte {
	bytes := rowsBytes(rows)
	if bytes > c.maxBytes {
		return nil
	}
	kept := copyRows(rows)
	var items []byte
	if len(cp.columns) == 1 {
		items, _ = appendItems(nil, kept)
		if bytes += int64(cap(items)); bytes > c.maxBytes {
			return nil
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cp.sql]
	if !ok || el.Value.(*queryEntry).cp != cp {
		return nil
	}
	ent := el.Value.(*queryEntry)
	if ent.res != nil {
		c.dropRowsLocked(ent)
	}
	ent.res = &cachedRows{deps: deps, rows: kept, items: items, bytes: bytes}
	c.results++
	c.resBytes += bytes
	c.lru.MoveToFront(el)
	for back := c.lru.Back(); c.resBytes > c.maxBytes; back = back.Prev() {
		if e := back.Value.(*queryEntry); e.res != nil {
			c.dropRowsLocked(e)
			c.resEvictions++
		}
	}
	return items
}

// removeLocked drops a whole entry; a result half dropped with it counts
// into resCounter.
func (c *queryCache) removeLocked(el *list.Element, resCounter *int64) {
	ent := el.Value.(*queryEntry)
	if ent.res != nil {
		c.dropRowsLocked(ent)
		*resCounter++
	}
	c.unaliasLocked(ent)
	c.lru.Remove(el)
	delete(c.entries, ent.cp.sql)
}

func (c *queryCache) dropRowsLocked(ent *queryEntry) {
	c.results--
	c.resBytes -= ent.res.bytes
	ent.res = nil
}

// PlanCacheStats reports the query cache's plan counters: cumulative hits,
// misses (a stale plan counts as one), capacity evictions, and the current
// resident entries. All zeros when the cache is disabled.
func (e *Engine) PlanCacheStats() (hits, misses, evictions, entries int64) {
	c := e.cache
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.planHits, c.planMisses, c.planEvictions, int64(c.lru.Len())
}

// ResultCacheStats reports the query cache's result counters: cumulative
// hits, misses, evictions (result halves dropped by the entry cap or the
// byte budget) and invalidations (stale result halves found at lookup or
// dropped with a stale plan), plus the resident result halves and their
// bytes. All zeros when result caching is off.
func (e *Engine) ResultCacheStats() (hits, misses, evictions, invalidations, entries, bytes int64) {
	c := e.cache
	if c == nil {
		return 0, 0, 0, 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.resHits, c.resMisses, c.resEvictions, c.resInvalidated, c.results, c.resBytes
}

// compiledFor returns a plan template for sql — from the cache when a
// current entry exists, else freshly compiled and cached. A template compiled
// against a table dropped mid-compile is cached all the same: its next lookup
// finds it stale. The bool reports a cache hit.
func (e *Engine) compiledFor(sql string, po PrepareOptions) (*compiledPlan, bool, error) {
	if e.cache != nil {
		if cp := e.cache.plan(sql, e.catalog); cp != nil {
			po.Span.SetAttr("plan_cache", "hit")
			return cp, true, nil
		}
	}
	cp, err := e.compile(sql, po)
	if err != nil {
		return nil, false, err
	}
	if e.cache != nil {
		e.cache.insert(cp)
	}
	return cp, false, nil
}

// PrepareText prepares the SQL a source text translates to, with the text
// known to the query cache by key: the text plus whatever else decides its
// translation. A current entry aliased by key is bound at once — translate
// never runs, the entry's Translation is returned, and the run's metrics
// report TextCacheHit. Otherwise translate runs, its SQL is prepared as
// PrepareOpts prepares it, and key becomes the alias of the SQL's entry. With
// the cache off translate runs every time. A translate error returns no
// Translation; a compile error returns it with the error.
func (e *Engine) PrepareText(key string, po PrepareOptions, translate func() (*Translation, error)) (*Prepared, *Translation, error) {
	if e.cache != nil {
		start := time.Now()
		if cp, tr := e.cache.aliased(key, e.catalog); cp != nil {
			po.Span.SetAttr("plan_cache", "text-hit")
			p, err := e.bind(cp, po)
			if err != nil {
				return nil, tr, err
			}
			p.metrics.PlanCacheHit, p.metrics.TextCacheHit, p.metrics.CompileTime = true, true, time.Since(start)
			return p, tr, nil
		}
	}
	tr, err := translate()
	if err != nil {
		return nil, nil, err
	}
	p, err := e.PrepareOpts(tr.SQL, po)
	if err != nil {
		return nil, tr, err
	}
	if e.cache != nil {
		e.cache.alias(key, p.cp, tr)
	}
	return p, tr, nil
}

// snapshotDeps flattens pinned snapshots into the cache's canonical (table,
// version) vector, sorted by table name.
func snapshotDeps(snaps map[*storage.Table]storage.TableSnapshot) []resultDep {
	deps := make([]resultDep, 0, len(snaps))
	for t, s := range snaps {
		deps = append(deps, resultDep{table: t.Name, version: s.Version})
	}
	slices.SortFunc(deps, func(a, b resultDep) int { return strings.Compare(a.table, b.table) })
	return deps
}

// copyRows clones the row list and each row; the variant values themselves
// are immutable and shared.
func copyRows(rows [][]variant.Value) [][]variant.Value {
	out := make([][]variant.Value, len(rows))
	for i, r := range rows {
		out[i] = append([]variant.Value(nil), r...)
	}
	return out
}

// appendItems appends rows, which must have one column, as one compact JSON
// array of their values.
func appendItems(dst []byte, rows [][]variant.Value) ([]byte, error) {
	dst = append(dst, '[')
	for i, r := range rows {
		if len(r) != 1 {
			return nil, fmt.Errorf("engine: items need one column, row %d has %d", i, len(r))
		}
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = r[0].AppendJSON(dst)
	}
	return append(dst, ']'), nil
}

// rowsBytes is the byte-budget measure of one result: the deep size of every
// value plus slice overhead per row.
func rowsBytes(rows [][]variant.Value) int64 {
	var n int64
	for _, r := range rows {
		n += 48 // row slice header + bookkeeping
		for _, v := range r {
			n += v.DeepSizeBytes()
		}
	}
	return n
}
