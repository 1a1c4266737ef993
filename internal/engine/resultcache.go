package engine

// Partition-versioned result cache. A query's rows are fully determined by
// its text (within one engine, whose knobs never change — the plan cache's
// key too) and the data it read — and under MVCC-by-partition-snapshot the
// data is identified exactly by the pinned (table, partition-set version)
// pairs the bind phase recorded. The cache therefore keys on the query text
// and stores the pinned version vector with each entry: a lookup hits only when
// every pinned version matches, so an append (whose seal advances the
// table's version before the reader pins) misses precisely, with no
// TTLs and no whole-cache flushes.
//
// Invalidation is two-layered. Lazily, a lookup whose pinned versions differ
// from the entry's drops the superseded entry. Eagerly, the storage catalog's
// mutation hook (every seal, CreateTable, DropTable, SetDataDir) evicts
// exactly the entries depending on the changed table — "" meaning all —
// so stale rows never linger behind a version fence waiting for LRU
// pressure. Capacity is bounded twice: an entry cap and a byte budget
// measured over the stored rows' deep size.
//
// Rows are defensively copied on both insert and hit: variant.Values are
// immutable so sharing them is safe, but the row and row-list slices are
// caller-visible and must not alias cache state.

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"

	"jsonpark/internal/variant"
)

// Result-cache defaults when enabled without explicit bounds.
const (
	defaultResultCacheEntries = 256
	defaultResultCacheBytes   = 64 << 20
)

// resultDep records one table the cached query read and the partition-set
// version pinned while computing it.
type resultDep struct {
	table   string
	version int64
}

type resultCacheEntry struct {
	sql     string
	deps    []resultDep
	columns []string
	rows    [][]variant.Value
	bytes   int64
}

// dependsOn reports whether the entry read the named table ("" matches every
// entry, including zero-table queries).
func (e *resultCacheEntry) dependsOn(table string) bool {
	if table == "" {
		return true
	}
	for _, d := range e.deps {
		if d.table == table {
			return true
		}
	}
	return false
}

func depsEqual(a, b []resultDep) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// resultCache is a bounded LRU of completed query results keyed on
// (query text, pinned partition-set versions).
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	curBytes   int64
	entries    map[string]*list.Element
	lru        *list.List // front = most recently used

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	return &resultCache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		entries:    make(map[string]*list.Element),
		lru:        list.New(),
	}
}

// lookup returns a copy of the cached rows when an entry matches the query
// text and the caller's pinned version vector exactly. An entry
// with a stale version vector is dropped on the spot (version-advance
// invalidation observed lazily).
func (c *resultCache) lookup(sql string, deps []resultDep) ([]string, [][]variant.Value, bool) {
	c.mu.Lock()
	el, ok := c.entries[sql]
	if ok {
		ent := el.Value.(*resultCacheEntry)
		if depsEqual(ent.deps, deps) {
			c.lru.MoveToFront(el)
			rows := copyRows(ent.rows)
			c.mu.Unlock()
			c.hits.Add(1)
			return ent.columns, rows, true
		}
		c.removeLocked(el)
		c.invalidations.Add(1)
	}
	c.mu.Unlock()
	c.misses.Add(1)
	return nil, nil, false
}

// insert stores one completed result, copying the rows. Entries larger than
// the whole byte budget are not cached.
func (c *resultCache) insert(sql string, deps []resultDep, columns []string, rows [][]variant.Value) {
	bytes := rowsBytes(rows)
	c.mu.Lock()
	defer c.mu.Unlock()
	if bytes > c.maxBytes {
		return
	}
	if el, ok := c.entries[sql]; ok {
		c.removeLocked(el)
	}
	ent := &resultCacheEntry{
		sql:     sql,
		deps:    append([]resultDep(nil), deps...),
		columns: columns,
		rows:    copyRows(rows),
		bytes:   bytes,
	}
	c.entries[sql] = c.lru.PushFront(ent)
	c.curBytes += bytes
	for c.lru.Len() > c.maxEntries || c.curBytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions.Add(1)
	}
}

// invalidate evicts every entry depending on the named table; "" evicts all.
// Wired as the storage catalog's mutation hook, so it runs on every seal,
// CreateTable, DropTable and SetDataDir.
func (c *resultCache) invalidate(table string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.lru.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*resultCacheEntry).dependsOn(table) {
			c.removeLocked(el)
			c.invalidations.Add(1)
		}
	}
}

func (c *resultCache) removeLocked(el *list.Element) {
	ent := el.Value.(*resultCacheEntry)
	c.lru.Remove(el)
	delete(c.entries, ent.sql)
	c.curBytes -= ent.bytes
}

// stats returns cumulative hits, misses, evictions (capacity), and
// invalidations (version advance), plus the current entry count and resident
// bytes.
func (c *resultCache) stats() (hits, misses, evictions, invalidations, entries, bytes int64) {
	if c == nil {
		return 0, 0, 0, 0, 0, 0
	}
	c.mu.Lock()
	entries = int64(c.lru.Len())
	bytes = c.curBytes
	c.mu.Unlock()
	return c.hits.Load(), c.misses.Load(), c.evictions.Load(), c.invalidations.Load(), entries, bytes
}

// ResultCacheStats reports the engine's result-cache counters: cumulative
// hits, misses, capacity evictions and version-advance invalidations, plus
// the current resident entries and bytes. All zeros when the cache is
// disabled.
func (e *Engine) ResultCacheStats() (hits, misses, evictions, invalidations, entries, bytes int64) {
	return e.resultCache.stats()
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
