// Persistent micro-partitions. A table with a data directory writes every
// sealed partition to its own file and survives process restart: the catalog
// rediscovers tables lazily from disk, partition *headers* (row counts, byte
// sizes, per-path zone maps) load eagerly so pruning works without touching
// data, and chunk data streams in on first scan of each partition.
//
// On-disk layout under the data directory:
//
//	<dataDir>/<table>/MANIFEST          table header: magic, version, columns
//	<dataDir>/<table>/part-NNNNNN.jpp   one sealed partition per file
//
// Partition file format (all integers varint-encoded unless noted):
//
//	"JPKP" magic · version byte · headerLen · header · data
//
// The header holds rows, partition bytes, and per column: chunk bytes plus
// the full path-statistics map (min/max via variant.AppendBinary — the same
// exact codec the spill files use). The data section holds per column an
// encoding tag (variant, int64, float64, string, dict, bool), an optional
// null bitmap, and the flat values. Every read is bounds-checked; malformed
// files surface *CorruptError, never a panic.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

const (
	manifestMagic  = "JPKT"
	partitionMagic = "JPKP"
	formatVersion  = 1

	manifestName = "MANIFEST"
	partPrefix   = "part-"
	partSuffix   = ".jpp"
)

// Chunk encoding tags in the partition file data section.
const (
	encVariant = 0
	encInt64   = 1
	encFloat64 = 2
	encString  = 3
	encDict    = 4
	encBool    = 5
)

// CorruptError reports a malformed or truncated on-disk table file. Decoders
// return it (wrapped) instead of panicking so a damaged data directory
// degrades into a query error.
type CorruptError struct {
	Path   string
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("storage: corrupt file %s: %s", e.Path, e.Detail)
}

func corruptf(path, format string, args ...any) error {
	return &CorruptError{Path: path, Detail: fmt.Sprintf(format, args...)}
}

// ensureScannedLocked discovers on-disk tables once, before the first table
// is created or looked up. The first error is sticky: the catalog keeps
// returning it rather than serving a partial view of the directory.
func (c *Catalog) ensureScannedLocked() error {
	if c.scanned || c.dataDir == "" {
		return c.scanErr
	}
	c.scanned = true
	entries, err := os.ReadDir(c.dataDir)
	if err != nil {
		if os.IsNotExist(err) {
			c.scanErr = os.MkdirAll(c.dataDir, 0o755)
		} else {
			c.scanErr = fmt.Errorf("storage: scanning data dir: %w", err)
		}
		return c.scanErr
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		dir := filepath.Join(c.dataDir, name)
		if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
			continue // not a table directory
		}
		t, err := openTableDir(dir, name)
		if err != nil {
			c.scanErr = err
			return c.scanErr
		}
		t.typedOff = c.typedOff
		c.tables[name] = t
	}
	return nil
}

// attachTableDirLocked sets up the on-disk directory for a newly created
// table: the directory itself plus the MANIFEST naming the columns.
func (c *Catalog) attachTableDirLocked(t *Table) error {
	if c.dataDir == "" {
		return nil
	}
	dir := filepath.Join(c.dataDir, t.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("storage: creating table dir: %w", err)
	}
	buf := []byte(manifestMagic)
	buf = append(buf, formatVersion)
	buf = binary.AppendUvarint(buf, uint64(len(t.Columns)))
	for _, col := range t.Columns {
		buf = appendString(buf, col)
	}
	if err := atomicWrite(filepath.Join(dir, manifestName), buf); err != nil {
		return err
	}
	t.dir = dir
	return nil
}

// openTableDir reconstructs a table from its directory: columns from the
// MANIFEST, sealed partitions from their file headers (zone maps included),
// chunk data left on disk until first scan.
func openTableDir(dir, name string) (*Table, error) {
	mpath := filepath.Join(dir, manifestName)
	buf, err := os.ReadFile(mpath)
	if err != nil {
		return nil, fmt.Errorf("storage: reading manifest: %w", err)
	}
	r := &byteReader{path: mpath, buf: buf}
	if err := r.expectMagic(manifestMagic); err != nil {
		return nil, err
	}
	ncols, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	cols := make([]string, ncols)
	for i := range cols {
		if cols[i], err = r.string(); err != nil {
			return nil, err
		}
	}
	t := NewTable(name, cols)
	t.dir = dir

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: listing table dir: %w", err)
	}
	var parts []string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, partPrefix) && strings.HasSuffix(n, partSuffix) {
			parts = append(parts, n)
		}
	}
	sort.Strings(parts)
	for _, pn := range parts {
		p, err := readPartitionHeader(filepath.Join(dir, pn), cols)
		if err != nil {
			return nil, err
		}
		t.partitions = append(t.partitions, p)
	}
	t.nextPart = len(parts)
	return t, nil
}

// writePartitionLocked persists one freshly sealed partition to the table's
// next numbered file (written to a temp name first, then renamed, so a crash
// never leaves a half partition behind).
func (t *Table) writePartitionLocked(p *Partition) error {
	path := filepath.Join(t.dir, fmt.Sprintf("%s%06d%s", partPrefix, t.nextPart, partSuffix))
	data := encodePartition(p)
	if err := atomicWrite(path, data); err != nil {
		return err
	}
	t.nextPart++
	return nil
}

func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("storage: writing %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: committing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// encodePartition serializes a sealed partition: header (stats for pruning)
// then data (chunk values).
func encodePartition(p *Partition) []byte {
	header := binary.AppendUvarint(nil, uint64(p.rows))
	header = binary.AppendUvarint(header, uint64(p.bytes))
	header = binary.AppendUvarint(header, uint64(len(p.chunks)))
	for _, cc := range p.chunks {
		header = binary.AppendUvarint(header, uint64(cc.bytes))
		header = appendStats(header, cc.stats)
	}

	var data []byte
	for _, cc := range p.chunks {
		data = appendChunkData(data, cc)
	}

	out := []byte(partitionMagic)
	out = append(out, formatVersion)
	out = binary.AppendUvarint(out, uint64(len(header)))
	out = append(out, header...)
	out = binary.AppendUvarint(out, uint64(len(data)))
	out = append(out, data...)
	return out
}

func appendStats(dst []byte, stats map[string]*PathStats) []byte {
	paths := make([]string, 0, len(stats))
	for p := range stats {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	dst = binary.AppendUvarint(dst, uint64(len(paths)))
	for _, path := range paths {
		st := stats[path]
		dst = appendString(dst, path)
		dst = binary.AppendUvarint(dst, uint64(st.NonNull))
		dst = binary.AppendUvarint(dst, uint64(st.NullCount))
		dst = binary.AppendUvarint(dst, uint64(st.Bytes))
		if st.NonNull > 0 {
			dst = st.Min.AppendBinary(dst)
			dst = st.Max.AppendBinary(dst)
		}
	}
	return dst
}

func appendChunkData(dst []byte, cc *ColumnChunk) []byte {
	if tc := cc.typed; tc != nil {
		n := tc.Len()
		switch {
		case tc.Kind() == vector.TypedInt64:
			dst = append(dst, encInt64)
			dst = appendNulls(dst, tc, n)
			for _, x := range tc.Ints() {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
			}
		case tc.Kind() == vector.TypedFloat64:
			dst = append(dst, encFloat64)
			dst = appendNulls(dst, tc, n)
			for _, x := range tc.Floats() {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
			}
		case tc.Kind() == vector.TypedString && tc.Codes() != nil:
			dst = append(dst, encDict)
			dst = appendNulls(dst, tc, n)
			dict := tc.Dict()
			dst = binary.AppendUvarint(dst, uint64(len(dict)))
			for _, s := range dict {
				dst = appendString(dst, s)
			}
			for _, c := range tc.Codes() {
				dst = binary.LittleEndian.AppendUint32(dst, c)
			}
		case tc.Kind() == vector.TypedString:
			dst = append(dst, encString)
			dst = appendNulls(dst, tc, n)
			for _, s := range tc.Strs() {
				dst = appendString(dst, s)
			}
		case tc.Kind() == vector.TypedBool:
			dst = append(dst, encBool)
			dst = appendNulls(dst, tc, n)
			for _, b := range tc.Bools() {
				if b {
					dst = append(dst, 1)
				} else {
					dst = append(dst, 0)
				}
			}
		}
		return dst
	}
	dst = append(dst, encVariant)
	dst = binary.AppendUvarint(dst, uint64(len(cc.values)))
	for _, v := range cc.values {
		dst = v.AppendBinary(dst)
	}
	return dst
}

// appendNulls writes row count plus the null bitmap (flag byte, then the
// packed words when present).
func appendNulls(dst []byte, tc *vector.TypedCol, n int) []byte {
	dst = binary.AppendUvarint(dst, uint64(n))
	if !tc.HasNulls() {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	words := make([]uint64, vector.NullBitmapWords(n))
	for i := 0; i < n; i++ {
		if tc.Null(i) {
			vector.SetNullBit(words, i)
		}
	}
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// readPartitionHeader reads a partition file's header — enough for pruning
// and row accounting — and arms a lazy loader for the data section.
func readPartitionHeader(path string, cols []string) (*Partition, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: reading partition: %w", err)
	}
	r := &byteReader{path: path, buf: buf}
	if err := r.expectMagic(partitionMagic); err != nil {
		return nil, err
	}
	headerLen, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	header, err := r.bytes(int(headerLen))
	if err != nil {
		return nil, err
	}
	hr := &byteReader{path: path, buf: header}
	p := newPartition(cols)
	rows, err := hr.uvarint()
	if err != nil {
		return nil, err
	}
	p.rows = int(rows)
	pbytes, err := hr.uvarint()
	if err != nil {
		return nil, err
	}
	p.bytes = int64(pbytes)
	ncols, err := hr.uvarint()
	if err != nil {
		return nil, err
	}
	if int(ncols) != len(cols) {
		return nil, corruptf(path, "partition has %d columns, table has %d", ncols, len(cols))
	}
	for _, cc := range p.chunks {
		cbytes, err := hr.uvarint()
		if err != nil {
			return nil, err
		}
		cc.bytes = int64(cbytes)
		if err := readStats(hr, cc.stats); err != nil {
			return nil, err
		}
	}
	dataLen, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	dataOff := r.off
	if len(buf)-dataOff < int(dataLen) {
		return nil, corruptf(path, "data section truncated: want %d bytes, have %d", dataLen, len(buf)-dataOff)
	}
	p.loadFn = func() error {
		return loadPartitionData(p, path, dataOff, int(dataLen))
	}
	return p, nil
}

func readStats(r *byteReader, stats map[string]*PathStats) error {
	n, err := r.uvarint()
	if err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		path, err := r.string()
		if err != nil {
			return err
		}
		st := &PathStats{}
		nonNull, err := r.uvarint()
		if err != nil {
			return err
		}
		st.NonNull = int(nonNull)
		nullCount, err := r.uvarint()
		if err != nil {
			return err
		}
		st.NullCount = int(nullCount)
		b, err := r.uvarint()
		if err != nil {
			return err
		}
		st.Bytes = int64(b)
		if st.NonNull > 0 {
			if st.Min, err = r.value(); err != nil {
				return err
			}
			if st.Max, err = r.value(); err != nil {
				return err
			}
		}
		stats[path] = st
	}
	return nil
}

// loadPartitionData reads and decodes the data section, populating every
// chunk's values or typed array. Called at most once per partition through
// EnsureLoaded.
func loadPartitionData(p *Partition, path string, off, length int) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("storage: opening partition: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only; ReadAt already surfaced any I/O error
	buf := make([]byte, length)
	if _, err := f.ReadAt(buf, int64(off)); err != nil {
		return corruptf(path, "data section truncated: %v", err)
	}
	r := &byteReader{path: path, buf: buf}
	for _, cc := range p.chunks {
		if err := readChunkData(r, cc); err != nil {
			return err
		}
	}
	return nil
}

func readChunkData(r *byteReader, cc *ColumnChunk) error {
	enc, err := r.byte()
	if err != nil {
		return err
	}
	if enc == encVariant {
		n, err := r.uvarint()
		if err != nil {
			return err
		}
		if n > uint64(len(r.buf)-r.off) {
			return corruptf(r.path, "variant chunk claims %d rows in %d bytes", n, len(r.buf)-r.off)
		}
		vals := make([]variant.Value, 0, n)
		for i := uint64(0); i < n; i++ {
			v, err := r.value()
			if err != nil {
				return err
			}
			vals = append(vals, v)
		}
		cc.values = variant.Freeze(vals)
		return nil
	}

	n, err := r.uvarint()
	if err != nil {
		return err
	}
	if n > uint64(len(r.buf)-r.off) {
		return corruptf(r.path, "typed chunk claims %d rows in %d bytes", n, len(r.buf)-r.off)
	}
	rows := int(n)
	hasNulls, err := r.byte()
	if err != nil {
		return err
	}
	var nulls []uint64
	if hasNulls == 1 {
		words := vector.NullBitmapWords(rows)
		nulls = make([]uint64, words)
		for i := range nulls {
			b, err := r.bytes(8)
			if err != nil {
				return err
			}
			nulls[i] = binary.LittleEndian.Uint64(b)
		}
	} else if hasNulls != 0 {
		return corruptf(r.path, "bad null-bitmap flag 0x%02x", hasNulls)
	}

	switch enc {
	case encInt64:
		vals := make([]int64, rows)
		for i := range vals {
			b, err := r.bytes(8)
			if err != nil {
				return err
			}
			vals[i] = int64(binary.LittleEndian.Uint64(b))
		}
		cc.typed = vector.NewInt64Col(vals, nulls)
	case encFloat64:
		vals := make([]float64, rows)
		for i := range vals {
			b, err := r.bytes(8)
			if err != nil {
				return err
			}
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(b))
		}
		cc.typed = vector.NewFloat64Col(vals, nulls)
	case encString:
		vals := make([]string, rows)
		for i := range vals {
			s, err := r.string()
			if err != nil {
				return err
			}
			vals[i] = s
		}
		cc.typed = vector.NewStringCol(vals, nulls)
	case encDict:
		dlen, err := r.uvarint()
		if err != nil {
			return err
		}
		if dlen > uint64(len(r.buf)-r.off) {
			return corruptf(r.path, "dictionary claims %d entries in %d bytes", dlen, len(r.buf)-r.off)
		}
		dict := make([]string, dlen)
		for i := range dict {
			if dict[i], err = r.string(); err != nil {
				return err
			}
		}
		codes := make([]uint32, rows)
		for i := range codes {
			b, err := r.bytes(4)
			if err != nil {
				return err
			}
			codes[i] = binary.LittleEndian.Uint32(b)
			if uint64(codes[i]) >= dlen {
				return corruptf(r.path, "dictionary code %d out of range (dict size %d)", codes[i], dlen)
			}
		}
		cc.typed = vector.NewDictCol(dict, codes, nulls)
	case encBool:
		vals := make([]bool, rows)
		for i := range vals {
			b, err := r.byte()
			if err != nil {
				return err
			}
			vals[i] = b != 0
		}
		cc.typed = vector.NewBoolCol(vals, nulls)
	default:
		return corruptf(r.path, "unknown chunk encoding 0x%02x", enc)
	}
	return nil
}

// byteReader is a bounds-checked cursor over a file's bytes; every decoding
// failure becomes a CorruptError carrying the file path.
type byteReader struct {
	path string
	buf  []byte
	off  int
}

func (r *byteReader) expectMagic(magic string) error {
	b, err := r.bytes(len(magic) + 1)
	if err != nil {
		return err
	}
	if string(b[:len(magic)]) != magic {
		return corruptf(r.path, "bad magic %q", b[:len(magic)])
	}
	if b[len(magic)] != formatVersion {
		return corruptf(r.path, "unsupported format version %d (supported: %d)", b[len(magic)], formatVersion)
	}
	return nil
}

func (r *byteReader) bytes(n int) ([]byte, error) {
	if n < 0 || len(r.buf)-r.off < n {
		return nil, corruptf(r.path, "truncated: need %d bytes at offset %d, have %d", n, r.off, len(r.buf)-r.off)
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *byteReader) byte() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *byteReader) uvarint() (uint64, error) {
	v, w := binary.Uvarint(r.buf[r.off:])
	if w <= 0 {
		return 0, corruptf(r.path, "bad varint at offset %d", r.off)
	}
	r.off += w
	return v, nil
}

func (r *byteReader) string() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *byteReader) value() (variant.Value, error) {
	v, rest, err := variant.DecodeBinary(r.buf[r.off:])
	if err != nil {
		return variant.Null, corruptf(r.path, "bad value at offset %d: %v", r.off, err)
	}
	r.off = len(r.buf) - len(rest)
	return v, nil
}
