package engine

// Prepared-plan cache. Compilation (parse → plan → optimize → physicalize)
// produces an immutable plan template; binding attaches the cheap per-run
// iterator state. The cache keeps recently compiled templates in a bounded
// LRU so a hot repeated query skips every compile stage and pays only the
// bind cost.
//
// Key: the query text. A template is a function of the text and the schema
// alone — physicalize reads neither storage nor the engine's knobs, and every
// data- or knob-dependent choice (which breakers fan out, how many workers)
// is made by the operators at bind or on their first batch — and the cache
// belongs to one engine, whose knobs never change.
//
// Entries remember the catalog version they were compiled at, which moves
// only on DDL: table create/drop, data-dir reattachment and on-disk table
// discovery. Any version change invalidates the whole cache on the next
// access, because a cached ScanNode holds the *storage.Table it was planned
// against, which a dropped/recreated table would leave dangling. Appends and
// seals never invalidate: bind pins the table's current partition set every
// run, so a cached plan sees new data.

import (
	"container/list"
	"sync"
	"sync/atomic"
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
}

// planCache is a bounded LRU of compiled plan templates keyed on the query
// text. All entries belong to one catalog version; a version change observed
// on lookup or insert clears the cache.
type planCache struct {
	mu      sync.Mutex
	size    int
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	version int64      // catalog version the resident entries compiled at

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

func newPlanCache(size int) *planCache {
	return &planCache{
		size:    size,
		entries: make(map[string]*list.Element),
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
	c.entries = make(map[string]*list.Element)
	c.lru.Init()
}

// lookup returns the cached template for sql at the given catalog version,
// promoting it to most-recently-used.
func (c *planCache) lookup(sql string, version int64) (*compiledPlan, bool) {
	c.mu.Lock()
	c.syncVersionLocked(version)
	el, ok := c.entries[sql]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.lru.MoveToFront(el)
	cp := el.Value.(*compiledPlan)
	c.mu.Unlock()
	c.hits.Add(1)
	return cp, true
}

// insert stores a freshly compiled template, evicting the least-recently
// used entry when the cache is full.
func (c *planCache) insert(version int64, cp *compiledPlan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.syncVersionLocked(version)
	if el, ok := c.entries[cp.sql]; ok {
		el.Value = cp
		c.lru.MoveToFront(el)
		return
	}
	c.entries[cp.sql] = c.lru.PushFront(cp)
	for c.lru.Len() > c.size {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.entries, back.Value.(*compiledPlan).sql)
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

// compiledFor returns a plan template for sql — from the cache when a
// current-version entry exists, else freshly compiled (and cached when the
// catalog did not move mid-compile). The bool reports a cache hit.
func (e *Engine) compiledFor(sql string, po PrepareOptions) (*compiledPlan, bool, error) {
	if e.planCache == nil {
		cp, err := e.compile(sql, po)
		return cp, false, err
	}
	version := e.catalog.Version()
	if cp, ok := e.planCache.lookup(sql, version); ok {
		po.Span.SetAttr("plan_cache", "hit")
		return cp, true, nil
	}
	cp, err := e.compile(sql, po)
	if err != nil {
		return nil, false, err
	}
	// Cache only if the catalog did not change while we compiled; DDL
	// mid-compile could leave the template pointing at a dropped table.
	if e.catalog.Version() == version {
		e.planCache.insert(version, cp)
	}
	return cp, false, nil
}
