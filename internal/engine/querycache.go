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
// Bounds: whole entries evict at the entry cap; result halves alone evict,
// from the LRU end, once the resident result bytes pass the budget, and a
// result larger than the whole budget is never admitted. Rows are copied on
// insert and on hit: variant values are immutable, but the row slices are
// caller-visible and must not alias cache state.

import (
	"container/list"
	"slices"
	"sort"
	"sync"

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
// produced over the pinned versions deps.
type cachedRows struct {
	deps  []resultDep
	rows  [][]variant.Value
	bytes int64
}

type queryEntry struct {
	cp  *compiledPlan
	res *cachedRows // nil until a run of cp attaches its rows
}

// queryCache is the engine's bounded LRU of compiled plans and their results,
// keyed on the query text. Every field below mu is guarded by it.
type queryCache struct {
	size     int   // entry cap
	maxBytes int64 // resident result-byte budget; 0 keeps results off

	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	results  int64      // resident result halves
	resBytes int64

	planHits, planMisses, planEvictions              int64
	resHits, resMisses, resEvictions, resInvalidated int64
}

func newQueryCache(size int, maxBytes int64) *queryCache {
	return &queryCache{
		size:     size,
		maxBytes: maxBytes,
		entries:  make(map[string]*list.Element),
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

// insert caches a freshly compiled template, evicting least-recently-used
// entries past the cap. An entry already holding the text (a concurrent
// compile) takes the new template and keeps its result half, whose own
// pinned versions decide whether it is current.
func (c *queryCache) insert(cp *compiledPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[cp.sql]; ok {
		el.Value.(*queryEntry).cp = cp
		c.lru.MoveToFront(el)
		return
	}
	c.entries[cp.sql] = c.lru.PushFront(&queryEntry{cp: cp})
	for c.lru.Len() > c.size {
		c.removeLocked(c.lru.Back(), &c.resEvictions)
		c.planEvictions++
	}
}

// rows returns a copy of the rows cached for sql when they were computed over
// exactly the pinned versions deps. A stale result half is dropped.
func (c *queryCache) rows(sql string, deps []resultDep) ([][]variant.Value, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[sql]; ok {
		ent := el.Value.(*queryEntry)
		if ent.res != nil && slices.Equal(ent.res.deps, deps) {
			c.lru.MoveToFront(el)
			c.resHits++
			return copyRows(ent.res.rows), true
		}
		if ent.res != nil {
			c.dropRowsLocked(ent)
			c.resInvalidated++
		}
	}
	c.resMisses++
	return nil, false
}

// attach stores a copy of rows, computed by a run of cp over the pinned
// versions deps, as the result half of cp's entry — only while cp is still
// the template cached under its text, so rows never outlive the plan that
// made them. Rows larger than the whole budget are not cached; otherwise
// result halves evict from the LRU end until the budget holds.
func (c *queryCache) attach(cp *compiledPlan, deps []resultDep, rows [][]variant.Value) {
	bytes := rowsBytes(rows)
	if bytes > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[cp.sql]
	if !ok || el.Value.(*queryEntry).cp != cp {
		return
	}
	ent := el.Value.(*queryEntry)
	if ent.res != nil {
		c.dropRowsLocked(ent)
	}
	ent.res = &cachedRows{deps: deps, rows: copyRows(rows), bytes: bytes}
	c.results++
	c.resBytes += bytes
	c.lru.MoveToFront(el)
	for back := c.lru.Back(); c.resBytes > c.maxBytes; back = back.Prev() {
		if e := back.Value.(*queryEntry); e.res != nil {
			c.dropRowsLocked(e)
			c.resEvictions++
		}
	}
}

// removeLocked drops a whole entry; a result half dropped with it counts
// into resCounter.
func (c *queryCache) removeLocked(el *list.Element, resCounter *int64) {
	ent := el.Value.(*queryEntry)
	if ent.res != nil {
		c.dropRowsLocked(ent)
		*resCounter++
	}
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

// snapshotDeps flattens the bind-time pinned snapshots into the cache's
// canonical (table, version) vector, sorted by table name.
func (c *execContext) snapshotDeps() []resultDep {
	deps := make([]resultDep, 0, len(c.snapshots))
	for t, s := range c.snapshots {
		deps = append(deps, resultDep{table: t.Name, version: s.Version})
	}
	sort.Slice(deps, func(i, j int) bool { return deps[i].table < deps[j].table })
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
