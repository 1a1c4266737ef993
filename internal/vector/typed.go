package vector

import "jsonpark/internal/variant"

// TypedKind enumerates the monomorphic physical encodings a shredded column
// can take. A typed column holds exactly one scalar kind plus NULLs; any
// other mix stays on the variant representation.
type TypedKind uint8

// The typed encodings.
const (
	TypedInt64 TypedKind = iota
	TypedFloat64
	TypedString
	TypedBool
)

// String names the kind for diagnostics and the partition file format docs.
func (k TypedKind) String() string {
	switch k {
	case TypedInt64:
		return "int64"
	case TypedFloat64:
		return "float64"
	case TypedString:
		return "string"
	case TypedBool:
		return "bool"
	}
	return "typed?"
}

// TypedCol is a read-only typed view of one column: a flat Go slice of one
// scalar type plus a null bitmap, as produced by micro-partition sealing.
// Expression kernels run tight monomorphic loops over the value slice
// (Ints/Floats/Strs/Bools) instead of dispatching on variant.Value per row;
// Materialize is the escape hatch back to variants for operators that need
// them. Views are cheap: Slice re-slices the value storage in place and the
// null bitmap is shared with a bit offset, so a scan batch aliases its
// chunk's arrays with zero copying (same contract as Batch.Cols).
//
// A value slice position i is only meaningful when Null(i) is false; null
// positions of a chunk view hold the zero value of the element type.
//
// A register (Reset) is a TypedCol an operator owns and refills every batch:
// an expression DAG's typed result, FLATTEN's typed columns. Its views are
// recycled storage, valid until the owner's next call like any variant
// register, so Batch.Detach copies them where it shares chunk views.
type TypedCol struct {
	kind TypedKind
	n    int

	// nulls is the full-chunk null bitmap (bit set = NULL), shared across
	// views; nullOff is this view's starting bit. nil means no nulls.
	nulls   []uint64
	nullOff int

	ints   []int64
	floats []float64
	// strs holds per-row strings for the plain encoding; under dictionary
	// encoding it is nil and codes indexes into dict.
	strs  []string
	dict  []string
	codes []uint32
	bools []bool

	// reg marks a register; bits is its null-bitmap storage, kept across
	// batches while nulls is nil.
	reg  bool
	bits []uint64
}

// NewInt64Col wraps an int64 slice (and optional null bitmap over [0,
// len(vals))) as a typed column.
func NewInt64Col(vals []int64, nulls []uint64) *TypedCol {
	return &TypedCol{kind: TypedInt64, n: len(vals), ints: vals, nulls: nulls}
}

// NewFloat64Col wraps a float64 slice as a typed column.
func NewFloat64Col(vals []float64, nulls []uint64) *TypedCol {
	return &TypedCol{kind: TypedFloat64, n: len(vals), floats: vals, nulls: nulls}
}

// NewStringCol wraps a per-row string slice as a typed column.
func NewStringCol(vals []string, nulls []uint64) *TypedCol {
	return &TypedCol{kind: TypedString, n: len(vals), strs: vals, nulls: nulls}
}

// NewDictCol wraps a dictionary-encoded string column: codes[i] indexes into
// dict for every non-null row.
func NewDictCol(dict []string, codes []uint32, nulls []uint64) *TypedCol {
	return &TypedCol{kind: TypedString, n: len(codes), dict: dict, codes: codes, nulls: nulls}
}

// NewBoolCol wraps a bool slice as a typed column.
func NewBoolCol(vals []bool, nulls []uint64) *TypedCol {
	return &TypedCol{kind: TypedBool, n: len(vals), bools: vals, nulls: nulls}
}

// Kind reports the column's scalar encoding.
func (t *TypedCol) Kind() TypedKind { return t.kind }

// Len returns the view's row count.
func (t *TypedCol) Len() int { return t.n }

// HasNulls reports whether the column carries a null bitmap at all. A false
// return lets kernels skip the per-row null test entirely.
func (t *TypedCol) HasNulls() bool { return t.nulls != nil }

// Null reports whether row i of the view is NULL.
func (t *TypedCol) Null(i int) bool {
	if t.nulls == nil {
		return false
	}
	bit := t.nullOff + i
	return t.nulls[bit>>6]&(1<<(bit&63)) != 0
}

// Ints returns the view's int64 values; valid only for TypedInt64.
func (t *TypedCol) Ints() []int64 { return t.ints }

// Floats returns the view's float64 values; valid only for TypedFloat64.
func (t *TypedCol) Floats() []float64 { return t.floats }

// Bools returns the view's bool values; valid only for TypedBool.
func (t *TypedCol) Bools() []bool { return t.bools }

// Strs returns the per-row strings of a plain string column, or nil when the
// column is dictionary-encoded (use Dict/Codes or StringAt).
func (t *TypedCol) Strs() []string { return t.strs }

// Dict returns the dictionary of a dictionary-encoded string column (nil for
// plain string columns).
func (t *TypedCol) Dict() []string { return t.dict }

// Codes returns the per-row dictionary codes (nil for plain string columns).
func (t *TypedCol) Codes() []uint32 { return t.codes }

// StringAt returns row i's string through either string representation; the
// row must be non-null.
func (t *TypedCol) StringAt(i int) string {
	if t.codes != nil {
		return t.dict[t.codes[i]]
	}
	return t.strs[i]
}

// Slice returns the [lo,hi) view of the column. Value storage is re-sliced
// in place and the null bitmap is shared with an adjusted bit offset, so a
// slice never copies.
func (t *TypedCol) Slice(lo, hi int) *TypedCol {
	out := &TypedCol{kind: t.kind, n: hi - lo, nulls: t.nulls, nullOff: t.nullOff + lo, dict: t.dict}
	switch t.kind {
	case TypedInt64:
		out.ints = t.ints[lo:hi:hi]
	case TypedFloat64:
		out.floats = t.floats[lo:hi:hi]
	case TypedString:
		if t.codes != nil {
			out.codes = t.codes[lo:hi:hi]
		} else {
			out.strs = t.strs[lo:hi:hi]
		}
	case TypedBool:
		out.bools = t.bools[lo:hi:hi]
	}
	return out
}

// Materialize appends the view's rows as variants to dst (allocated when
// nil) and returns it — the escape hatch for consumers that need the variant
// representation. The result is freshly built, so callers own it.
func (t *TypedCol) Materialize(dst []variant.Value) []variant.Value {
	if dst == nil {
		dst = make([]variant.Value, 0, t.n)
	}
	// Kind-specialized loops keep the hot path branch-light; the null test
	// is a bitmap probe either way.
	switch t.kind {
	case TypedInt64:
		for i, v := range t.ints {
			if t.Null(i) {
				dst = append(dst, variant.Null)
			} else {
				dst = append(dst, variant.Int(v))
			}
		}
	case TypedFloat64:
		for i, v := range t.floats {
			if t.Null(i) {
				dst = append(dst, variant.Null)
			} else {
				dst = append(dst, variant.Float(v))
			}
		}
	case TypedString:
		for i := 0; i < t.n; i++ {
			if t.Null(i) {
				dst = append(dst, variant.Null)
			} else {
				dst = append(dst, variant.String(t.StringAt(i)))
			}
		}
	case TypedBool:
		for i, v := range t.bools {
			if t.Null(i) {
				dst = append(dst, variant.Null)
			} else {
				dst = append(dst, variant.Bool(v))
			}
		}
	}
	return dst
}

// ValueAt converts row i of the view to a variant. Single-row reads never
// allocate, so row-at-a-time consumers that touch each row once are better
// served here than by materializing the whole column.
func (t *TypedCol) ValueAt(i int) variant.Value {
	if t.Null(i) {
		return variant.Null
	}
	switch t.kind {
	case TypedInt64:
		return variant.Int(t.ints[i])
	case TypedFloat64:
		return variant.Float(t.floats[i])
	case TypedString:
		return variant.String(t.StringAt(i))
	case TypedBool:
		return variant.Bool(t.bools[i])
	}
	return variant.Null
}

// Reset makes t an n-row register of an int64, float64 or bool kind over the
// storage it kept from earlier batches: values undefined, no NULLs.
func (t *TypedCol) Reset(kind TypedKind, n int) {
	t.kind, t.n, t.nulls, t.nullOff, t.reg = kind, n, nil, 0, true
	switch kind {
	case TypedInt64:
		t.ints = resize(t.ints, n)
	case TypedFloat64:
		t.floats = resize(t.floats, n)
	case TypedBool:
		t.bools = resize(t.bools, n)
	default:
		panic("vector: a register holds numbers or booleans")
	}
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SetLen shrinks a register to its first n rows, keeping their values and
// NULLs: for a producer that fills rows up to a bound it learns only as it
// goes.
func (t *TypedCol) SetLen(n int) {
	t.n = n
	switch t.kind {
	case TypedInt64:
		t.ints = t.ints[:n]
	case TypedFloat64:
		t.floats = t.floats[:n]
	case TypedBool:
		t.bools = t.bools[:n]
	}
}

// SetNull marks row i of a register NULL.
func (t *TypedCol) SetNull(i int) {
	if t.nulls == nil {
		t.bits = resize(t.bits, NullBitmapWords(t.n))
		clear(t.bits)
		t.nulls = t.bits
	}
	SetNullBit(t.nulls, i)
}

// NullsFrom marks NULL every row of sel that is NULL in src (nil: none).
func (t *TypedCol) NullsFrom(src *TypedCol, sel []int) {
	if src == nil || src.nulls == nil {
		return
	}
	for _, i := range sel {
		if src.Null(i) {
			t.SetNull(i)
		}
	}
}

// Gather refills the register dst with t's rows at idx, in order. t holds
// numbers or booleans; a string column gathers through Batch.Gather.
func (t *TypedCol) Gather(idx []int, dst *TypedCol) {
	dst.Reset(t.kind, len(idx))
	switch t.kind {
	case TypedInt64:
		for k, i := range idx {
			dst.ints[k] = t.ints[i]
		}
	case TypedFloat64:
		for k, i := range idx {
			dst.floats[k] = t.floats[i]
		}
	case TypedBool:
		for k, i := range idx {
			dst.bools[k] = t.bools[i]
		}
	}
	if t.nulls != nil {
		for k, i := range idx {
			if t.Null(i) {
				dst.SetNull(k)
			}
		}
	}
}

// Put sets row i of a register to row si of src — its value, or NULL —
// where both hold the same number or boolean kind.
func (t *TypedCol) Put(i int, src *TypedCol, si int) {
	if src.Null(si) {
		t.SetNull(i)
		return
	}
	switch t.kind {
	case TypedInt64:
		t.ints[i] = src.ints[si]
	case TypedFloat64:
		t.floats[i] = src.floats[si]
	case TypedBool:
		t.bools[i] = src.bools[si]
	}
}

// Copy returns t's rows at idx, in order, in storage of their own: a stable
// column, not a register — how the hash join retains a typed build column.
// A string column's copy shares its dictionary and string bytes.
func (t *TypedCol) Copy(idx []int) *TypedCol {
	if t.kind != TypedString {
		out := &TypedCol{}
		t.Gather(idx, out)
		out.reg = false
		return out
	}
	out := &TypedCol{kind: TypedString, n: len(idx), dict: t.dict}
	if t.codes != nil {
		out.codes = make([]uint32, len(idx))
		for k, i := range idx {
			out.codes[k] = t.codes[i]
		}
	} else {
		out.strs = make([]string, len(idx))
		for k, i := range idx {
			out.strs[k] = t.strs[i]
		}
	}
	if t.nulls != nil {
		for k, i := range idx {
			if t.Null(i) {
				if out.nulls == nil {
					out.nulls = make([]uint64, NullBitmapWords(len(idx)))
				}
				SetNullBit(out.nulls, k)
			}
		}
	}
	return out
}

// clone copies a register into storage of its own.
func (t *TypedCol) clone() *TypedCol {
	out := &TypedCol{kind: t.kind, n: t.n}
	switch t.kind {
	case TypedInt64:
		out.ints = append([]int64(nil), t.ints...)
	case TypedFloat64:
		out.floats = append([]float64(nil), t.floats...)
	case TypedBool:
		out.bools = append([]bool(nil), t.bools...)
	}
	if t.nulls != nil {
		out.nulls = append([]uint64(nil), t.nulls...)
	}
	return out
}

// DictMemo keeps a table with one entry per string of a dictionary-encoded
// column — a comparison's result for each distinct string — and computes it
// again only when a batch brings a different dictionary, so comparing batch
// after batch of one chunk allocates nothing.
type DictMemo struct {
	dict  []string
	table []bool
}

// Table returns the memo's table for t's dictionary, first calling fill over
// the dictionary when it is not the one the table was computed for.
func (m *DictMemo) Table(t *TypedCol, fill func(dict []string, table []bool)) []bool {
	same := len(m.dict) == len(t.dict) && (len(t.dict) == 0 || &m.dict[0] == &t.dict[0])
	if !same || m.table == nil {
		m.dict, m.table = t.dict, resize(m.table, len(t.dict))
		fill(m.dict, m.table)
	}
	return m.table
}

// SetNullBit marks bit i of a null bitmap sized for n rows; a helper for
// bitmap builders (storage sealing, the partition file reader).
func SetNullBit(bitmap []uint64, i int) { bitmap[i>>6] |= 1 << (i & 63) }

// NullBitmapWords returns the []uint64 word count needed for n bits.
func NullBitmapWords(n int) int { return (n + 63) / 64 }
