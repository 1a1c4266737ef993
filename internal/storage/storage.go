// Package storage implements the physical layer of the embedded engine,
// modeled on Snowflake's storage design (§II-B of the paper): tables are
// split into horizontal micro-partitions; within a partition data is stored
// per column; VARIANT values are transparently shredded into typed leaf-path
// subcolumns with per-path statistics (zone maps, null counts, byte sizes).
// The engine uses those statistics for partition pruning and for
// bytes-scanned accounting, and never requires a user-declared schema.
package storage

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// DefaultPartitionBytes is the target uncompressed size of one
// micro-partition. Snowflake targets 50–500 MB; the embedded engine defaults
// to a laptop-scale 4 MiB so that multi-partition behaviour (pruning,
// per-partition zone maps) is exercised even on small datasets.
const DefaultPartitionBytes = 4 << 20

// Catalog is the collection of tables known to one engine instance.
type Catalog struct {
	mu       sync.RWMutex
	tables   map[string]*Table
	typedOff bool
	dataDir  string
	scanned  bool
	scanErr  error
}

// tableVersionClock issues partition-set versions. It is process-global so a
// version is never reused, across drop/recreate cycles and across catalogs:
// a version match implies the same table instance as well as the same
// partition set.
var tableVersionClock atomic.Int64

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// SetTypedShredding toggles typed chunk encoding for tables created after the
// call (on by default). Off, every chunk keeps the variant representation —
// the reference storage mode for parity testing.
func (c *Catalog) SetTypedShredding(on bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.typedOff = !on
}

// CreateTable registers a new table with the given top-level column names.
// Column order is the staging order; every row holds one value per column.
func (c *Catalog) CreateTable(name string, columns []string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureScannedLocked(); err != nil {
		return nil, err
	}
	if _, exists := c.tables[name]; exists {
		return nil, fmt.Errorf("storage: table %q already exists", name)
	}
	t := NewTable(name, columns)
	t.typedOff = c.typedOff
	if err := c.attachTableDirLocked(t); err != nil {
		return nil, err
	}
	c.tables[name] = t
	return t, nil
}

// DropTable removes a table if present, including its on-disk directory when
// the catalog is persistent.
func (c *Catalog) DropTable(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureScannedLocked()
	t, ok := c.tables[name]
	if !ok {
		return
	}
	delete(c.tables, name)
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}

// Table returns the named table.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.ensureScannedLocked(); err != nil {
		return nil, err
	}
	t, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("storage: table %q does not exist", name)
	}
	return t, nil
}

// TableNames lists the catalog's tables in sorted order.
func (c *Catalog) TableNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ensureScannedLocked()
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Flush seals and persists every table's open partition. In-memory catalogs
// treat it as Seal on all tables.
func (c *Catalog) Flush() error {
	for _, name := range c.TableNames() {
		t, err := c.Table(name)
		if err != nil {
			return err
		}
		if err := t.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// Table is a stored table: an ordered list of sealed micro-partitions plus
// one open partition receiving appends.
type Table struct {
	Name    string
	Columns []string

	mu          sync.RWMutex
	partitions  []*Partition
	open        *Partition
	targetBytes int64
	colIndex    map[string]int
	typedOff    bool
	// version is the table's partition-set version: a fresh value from the
	// process-global clock at creation and after every seal. Readers pin a
	// (partitions, version) pair via Snapshot; a version match guarantees an
	// identical partition set, because sealed partitions are immutable and
	// the partition list is append-only.
	version int64

	// Persistence state: dir is the table's on-disk directory ("" for an
	// in-memory table), nextPart numbers the next partition file, and
	// persistErr latches the first write failure so appends surface it.
	dir        string
	nextPart   int
	persistErr error
}

// NewTable constructs a standalone table (outside any catalog); used by
// tests and loaders.
func NewTable(name string, columns []string) *Table {
	t := &Table{
		Name:        name,
		Columns:     append([]string(nil), columns...),
		targetBytes: DefaultPartitionBytes,
		colIndex:    make(map[string]int, len(columns)),
	}
	for i, c := range columns {
		t.colIndex[c] = i
	}
	t.open = newPartition(t.Columns)
	t.version = tableVersionClock.Add(1)
	return t
}

// SetTypedShredding toggles typed chunk encoding for partitions sealed after
// the call (on by default).
func (t *Table) SetTypedShredding(on bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.typedOff = !on
}

// SetTargetPartitionBytes overrides the micro-partition size target. It only
// affects subsequent appends.
func (t *Table) SetTargetPartitionBytes(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n > 0 {
		t.targetBytes = n
	}
}

// ColumnIndex returns the position of a column, or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIndex[name]; ok {
		return i
	}
	return -1
}

// Append adds one row. The row must have exactly one value per column, in
// column order. The open partition is sealed when it reaches the size target.
func (t *Table) Append(row []variant.Value) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("storage: table %q expects %d columns, got %d", t.Name, len(t.Columns), len(row))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.open.append(row)
	if t.open.bytes >= t.targetBytes {
		t.sealLocked()
	}
	return t.persistErr
}

// AppendObject adds one row from an object value: each table column is taken
// from the object's same-named field (missing fields become NULL). This is
// the schema-oblivious multi-column staging of §III-C.
func (t *Table) AppendObject(obj variant.Value) error {
	row := make([]variant.Value, len(t.Columns))
	for i, c := range t.Columns {
		row[i] = obj.Field(c)
	}
	return t.Append(row)
}

func (t *Table) sealLocked() {
	if t.open.rows == 0 {
		return
	}
	t.open.finalize(!t.typedOff)
	if t.dir != "" && t.persistErr == nil {
		t.persistErr = t.writePartitionLocked(t.open)
	}
	t.partitions = append(t.partitions, t.open)
	t.open = newPartition(t.Columns)
	// Every seal advances the partition-set version: the sealed rows are now
	// part of the pinned set any new Snapshot returns, so results computed
	// against the previous version are stale.
	t.version = tableVersionClock.Add(1)
}

// Seal closes the open partition so that all data is visible to scans with
// final statistics. Appending after Seal opens a new partition.
func (t *Table) Seal() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sealLocked()
}

// Flush seals the open partition and reports any persistence failure. A
// persistent table's tail rows are only on disk after Flush (or after an
// append crossed the partition size target).
func (t *Table) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sealLocked()
	return t.persistErr
}

// TableSnapshot is an MVCC read view of one table: an immutable partition
// list pinned at a point in time plus the partition-set version it
// corresponds to. Writers only ever add partitions, so a snapshot stays
// valid (and byte-stable) for as long as a reader holds it; the version
// identifies the set exactly — equal versions imply identical sets.
type TableSnapshot struct {
	Parts   []*Partition
	Version int64
}

// Snapshot seals any buffered rows and pins the current partition set.
// Readers bind their scans to the returned snapshot instead of re-reading
// the table, so one query observes a single consistent set even while
// concurrent appenders keep sealing new partitions. The fast path — no
// buffered rows — takes only the read lock, so concurrent readers do not
// serialize against each other.
func (t *Table) Snapshot() TableSnapshot {
	t.mu.RLock()
	if t.open.rows == 0 {
		parts := t.partitions[:len(t.partitions):len(t.partitions)]
		v := t.version
		t.mu.RUnlock()
		return TableSnapshot{Parts: parts, Version: v}
	}
	t.mu.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.open.rows > 0 {
		t.sealLocked()
	}
	return TableSnapshot{
		Parts:   t.partitions[:len(t.partitions):len(t.partitions)],
		Version: t.version,
	}
}

// Version returns the table's current partition-set version without sealing
// buffered rows (buffered rows advance the version at the next Snapshot).
func (t *Table) Version() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.version
}

// Partitions returns the sealed micro-partitions, sealing the open partition
// first so scans always observe every appended row. Callers must not mutate
// the result.
func (t *Table) Partitions() []*Partition {
	return t.Snapshot().Parts
}

// NumRows returns the total row count, buffered rows included, without
// sealing them.
func (t *Table) NumRows() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := int64(t.open.rows)
	for _, p := range t.partitions {
		n += int64(p.rows)
	}
	return n
}

// TotalBytes returns the total uncompressed byte size across partitions.
func (t *Table) TotalBytes() int64 {
	var n int64
	for _, p := range t.Partitions() {
		n += p.bytes
	}
	return n
}

// Partition is one horizontal micro-partition holding columnar data and
// per-leaf-path statistics.
type Partition struct {
	columns []string
	chunks  []*ColumnChunk
	rows    int
	bytes   int64

	// Lazy disk loading: a partition reconstructed from a file header keeps
	// loadFn armed until the first scan pulls the data section in. In-memory
	// partitions have a nil loadFn.
	loadFn   func() error
	loadOnce sync.Once
	loadErr  error
}

// EnsureLoaded makes the partition's chunk data resident, reading the data
// section from disk on first call. It returns whether THIS call performed the
// disk read (for scan accounting) and any load error; in-memory partitions
// return (false, nil).
func (p *Partition) EnsureLoaded() (bool, error) {
	if p.loadFn == nil {
		return false, nil
	}
	read := false
	p.loadOnce.Do(func() {
		p.loadErr = p.loadFn()
		read = p.loadErr == nil
	})
	return read, p.loadErr
}

func newPartition(columns []string) *Partition {
	p := &Partition{columns: columns, chunks: make([]*ColumnChunk, len(columns))}
	for i := range p.chunks {
		p.chunks[i] = &ColumnChunk{stats: make(map[string]*PathStats)}
	}
	return p
}

func (p *Partition) append(row []variant.Value) {
	for i, v := range row {
		p.chunks[i].append(v)
		p.bytes += v.DeepSizeBytes()
	}
	p.rows++
}

// finalize runs once at seal time: it attempts the typed encoding (when
// enabled for the table), freezes each chunk left on the variant encoding,
// and computes the per-path statistics in one pass — typed chunks derive
// their root zone map straight from the typed array, variant chunks shred
// every value. Appends never pay for stats upkeep; sealed
// partitions are immutable so the work happens exactly once.
func (p *Partition) finalize(typed bool) {
	for _, cc := range p.chunks {
		cc.finalize(typed)
	}
}

// NumRows returns the partition's row count.
func (p *Partition) NumRows() int { return p.rows }

// Bytes returns the partition's total uncompressed size.
func (p *Partition) Bytes() int64 { return p.bytes }

// Column returns the chunk for column index i.
func (p *Partition) Column(i int) *ColumnChunk { return p.chunks[i] }

// ColumnChunk stores one column of one partition: the row-major values plus
// the shredded leaf-path statistics that make VARIANT data behave like
// relational columns for pruning and scan accounting.
type ColumnChunk struct {
	values []variant.Value
	typed  *vector.TypedCol
	bytes  int64
	stats  map[string]*PathStats
}

// PathStats is the zone map of one leaf path inside a column chunk:
// min/max over non-null scalar values, the null count, and the byte volume
// attributable to that path.
type PathStats struct {
	Min, Max  variant.Value
	NonNull   int
	NullCount int
	Bytes     int64
}

func (cc *ColumnChunk) append(v variant.Value) {
	cc.values = append(cc.values, v)
	cc.bytes += v.DeepSizeBytes()
}

// finalize builds the typed encoding when requested, freezes a chunk that
// stays on the variant representation into one pointer-free block
// (variant.Freeze: the garbage collector marks it as one object instead of
// re-marking every nested value each cycle), and computes the chunk's path
// statistics from the frozen values.
func (cc *ColumnChunk) finalize(typed bool) {
	if typed {
		cc.typed = buildTyped(cc.values)
	}
	if cc.typed != nil {
		// The typed array supersedes the variant one: drop it so a typed
		// chunk costs one representation, and derive the zone map from the
		// typed values directly.
		cc.values = nil
		cc.rootStatsFromTyped(cc.typed)
		return
	}
	cc.values = variant.Freeze(cc.values)
	for _, v := range cc.values {
		cc.shred("", v)
	}
}

// shred records statistics for every leaf path of v. Array elements share
// the path of their array with an "[]" marker, matching Dremel-style
// repeated-field columns.
func (cc *ColumnChunk) shred(path string, v variant.Value) {
	switch v.Kind() {
	case variant.KindObject:
		o := v.AsObject()
		for i, k := range o.Keys() {
			sub := k
			if path != "" {
				sub = path + "." + k
			}
			cc.shred(sub, o.ValueAt(i))
		}
	case variant.KindArray:
		sub := path + "[]"
		for _, e := range v.AsArray() {
			cc.shred(sub, e)
		}
		if len(v.AsArray()) == 0 {
			cc.stat(sub).Bytes += 8
		}
	default:
		st := cc.stat(path)
		st.Bytes += v.DeepSizeBytes()
		if v.IsNull() {
			st.NullCount++
			return
		}
		if st.NonNull == 0 {
			st.Min, st.Max = v, v
		} else {
			if variant.Compare(v, st.Min) < 0 {
				st.Min = v
			}
			if variant.Compare(v, st.Max) > 0 {
				st.Max = v
			}
		}
		st.NonNull++
	}
}

func (cc *ColumnChunk) stat(path string) *PathStats {
	st, ok := cc.stats[path]
	if !ok {
		st = &PathStats{}
		cc.stats[path] = st
	}
	return st
}

// Values returns the chunk's row-major values. For a typed chunk the variant
// representation no longer exists, so each call materializes a fresh vector
// (no caching — sealed chunks are read concurrently); scans should use Typed
// first and fall back here. Callers must not mutate the result.
func (cc *ColumnChunk) Values() []variant.Value {
	if cc.values == nil && cc.typed != nil {
		return cc.typed.Materialize(make([]variant.Value, 0, cc.typed.Len()))
	}
	return cc.values
}

// Typed returns the chunk's typed encoding, or nil when the column stayed on
// the variant representation (mixed kinds, nested roots, or typed shredding
// disabled). Callers must not mutate the underlying arrays.
func (cc *ColumnChunk) Typed() *vector.TypedCol { return cc.typed }

// Bytes returns the chunk's uncompressed size.
func (cc *ColumnChunk) Bytes() int64 { return cc.bytes }

// PathStat returns the statistics for a leaf path ("" for a scalar column,
// "pt" for field pt, "[]" or "[].pt" inside arrays), or nil if the path
// never occurred.
func (cc *ColumnChunk) PathStat(path string) *PathStats { return cc.stats[path] }

// Paths lists the chunk's leaf paths in sorted order.
func (cc *ColumnChunk) Paths() []string {
	out := make([]string, 0, len(cc.stats))
	for p := range cc.stats {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// PruneOp is a comparison usable against zone maps.
type PruneOp int

// Prune operators.
const (
	PruneEq PruneOp = iota
	PruneLt
	PruneLe
	PruneGt
	PruneGe
)

// PrunePredicate describes one scan-level conjunct `column.path op literal`
// derived by the optimizer from a pushed-down filter.
type PrunePredicate struct {
	Column string
	Path   string // leaf path within the column ("" for scalar columns)
	Op     PruneOp
	Value  variant.Value
}

// MayMatch reports whether the partition could contain rows satisfying the
// predicate, based on the path's zone map. Missing statistics return true
// (cannot prune).
func (p *Partition) MayMatch(colIndex int, pred PrunePredicate) bool {
	if colIndex < 0 || colIndex >= len(p.chunks) {
		return true
	}
	st := p.chunks[colIndex].PathStat(pred.Path)
	if st == nil || st.NonNull == 0 {
		// The path never occurred (or held only NULLs) in this partition,
		// so every access yields NULL and the comparison can never be true:
		// the partition is safely pruneable.
		return false
	}
	min, max := st.Min, st.Max
	switch pred.Op {
	case PruneEq:
		return variant.Compare(pred.Value, min) >= 0 && variant.Compare(pred.Value, max) <= 0
	case PruneLt:
		return variant.Compare(min, pred.Value) < 0
	case PruneLe:
		return variant.Compare(min, pred.Value) <= 0
	case PruneGt:
		return variant.Compare(max, pred.Value) > 0
	case PruneGe:
		return variant.Compare(max, pred.Value) >= 0
	}
	return true
}
