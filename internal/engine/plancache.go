package engine

// Prepared-plan cache. Compilation (parse → plan → optimize → physicalize)
// produces an immutable plan template; binding attaches the cheap per-run
// iterator state. The cache keeps recently compiled templates in a bounded
// LRU so a hot repeated query skips every compile stage and pays only the
// bind cost.
//
// Key anatomy: the query fingerprint (the same FNV-1a hash qlog records, so
// a cache entry is correlatable with its log lines) × the full knob set that
// shapes a physical plan (batch size, parallelism, merge partitions, memory
// limit, typed columns, plan checking). Entries additionally remember the
// catalog version they were compiled at; any version change — table
// create/drop, data-dir reattachment, partition seal (including the implicit
// seal in Warehouse.Flush) — invalidates the whole cache on the next access.
// Eager whole-cache invalidation keeps the structure trivially bounded: no
// stale entry ever lingers behind a version fence.
//
// Correctness note: a cached template could serve stale *data* only if the
// partition list were baked into it. It is not — bind re-reads
// Table.Partitions() every run — so the version fence exists for plan-shape
// staleness (e.g. parallel-aggregate eligibility counts partitions) and for
// dropped/recreated tables, whose *storage.Table pointer inside a cached
// ScanNode would otherwise dangle.

import (
	"container/list"
	"sync"
	"sync/atomic"

	"jsonpark/internal/obsv/qlog"
)

// defaultPlanCacheSize bounds the cache when WithPlanCacheSize is not given.
const defaultPlanCacheSize = 128

// planKey identifies one compiled plan template: query fingerprint plus
// every engine knob that can change the physical plan.
type planKey struct {
	fingerprint string
	batchSize   int
	parallelism int
	memLimit    int64
	typedOff    bool
	planCheck   bool
}

// compiledPlan is the immutable output of the compile phase — everything
// Prepare produced before per-run iterator state. It is shared across
// concurrent binds, so nothing in it may be mutated after compile
// (physicalize mutates in place, but only during compile; schemas are
// pre-materialized so the lazy memo never races).
type compiledPlan struct {
	sql      string
	plan     Node
	columns  []string
	breakers int
	par      int
	// unorderedScans marks scans allowed to emit morsels out of order;
	// read-only after compile.
	unorderedScans map[Node]bool
}

type planCacheEntry struct {
	key planKey
	// sql guards against fingerprint collisions: a hit must match the full
	// query text, not just its 64-bit hash.
	sql string
	cp  *compiledPlan
}

// planCache is a bounded LRU of compiled plan templates. All entries belong
// to one catalog version; a version change observed on lookup or insert
// clears the cache.
type planCache struct {
	mu      sync.Mutex
	size    int
	entries map[planKey]*list.Element
	lru     *list.List // front = most recently used
	version int64      // catalog version the resident entries compiled at

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

func newPlanCache(size int) *planCache {
	return &planCache{
		size:    size,
		entries: make(map[planKey]*list.Element),
		lru:     list.New(),
	}
}

// syncVersionLocked drops every resident entry when the catalog has moved
// past the version they were compiled at.
func (c *planCache) syncVersionLocked(version int64) {
	if c.version == version {
		return
	}
	c.version = version
	if len(c.entries) == 0 {
		return
	}
	c.entries = make(map[planKey]*list.Element)
	c.lru.Init()
}

// lookup returns the cached template for (key, sql) at the given catalog
// version, promoting it to most-recently-used.
func (c *planCache) lookup(key planKey, sql string, version int64) (*compiledPlan, bool) {
	c.mu.Lock()
	c.syncVersionLocked(version)
	el, ok := c.entries[key]
	if ok {
		ent := el.Value.(*planCacheEntry)
		if ent.sql == sql {
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Add(1)
			return ent.cp, true
		}
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return nil, false
}

// insert stores a freshly compiled template, evicting the least-recently
// used entry when the cache is full.
func (c *planCache) insert(key planKey, sql string, version int64, cp *compiledPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncVersionLocked(version)
	if el, ok := c.entries[key]; ok {
		el.Value = &planCacheEntry{key: key, sql: sql, cp: cp}
		c.lru.MoveToFront(el)
		return
	}
	c.entries[key] = c.lru.PushFront(&planCacheEntry{key: key, sql: sql, cp: cp})
	for c.lru.Len() > c.size {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*planCacheEntry).key)
		c.evictions.Add(1)
	}
}

// stats returns cumulative hits, misses, evictions, and the current entry
// count.
func (c *planCache) stats() (hits, misses, evictions, entries int64) {
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	entries = int64(c.lru.Len())
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), entries
}

// PlanCacheStats reports the engine's prepared-plan cache counters:
// cumulative hits, misses, evictions, and current resident entries. All
// zeros when the cache is disabled.
func (e *Engine) PlanCacheStats() (hits, misses, evictions, entries int64) {
	return e.planCache.stats()
}

// planKeyFor builds the cache key for sql under this engine's knob set.
func (e *Engine) planKeyFor(sql string) planKey {
	return planKey{
		fingerprint: qlog.Fingerprint(sql, ""),
		batchSize:   e.batchSize,
		parallelism: e.parallelism,
		memLimit:    e.memLimit,
		typedOff:    e.typedOff,
		planCheck:   e.planCheck,
	}
}

// compiledFor returns a plan template for sql — from the cache when a
// current-version entry exists, else freshly compiled (and cached when the
// catalog did not move mid-compile). The bool reports a cache hit.
func (e *Engine) compiledFor(sql string, po PrepareOptions) (*compiledPlan, bool, error) {
	if e.planCache == nil {
		cp, err := e.compile(sql, po)
		return cp, false, err
	}
	key := e.planKeyFor(sql)
	version := e.catalog.Version()
	if cp, ok := e.planCache.lookup(key, sql, version); ok {
		po.Span.SetAttr("plan_cache", "hit")
		return cp, true, nil
	}
	cp, err := e.compile(sql, po)
	if err != nil {
		return nil, false, err
	}
	// Cache only if the catalog did not change while we compiled; a seal or
	// DDL mid-compile would make the template's physical choices stale.
	if e.catalog.Version() == version {
		e.planCache.insert(key, sql, version, cp)
	}
	return cp, false, nil
}
