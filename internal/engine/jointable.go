package engine

import (
	"bytes"
	"hash/maphash"
	"math"

	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// The hash join's table (DESIGN.md §8 "Join table"). One open-addressing
// table maps each distinct build key to a slot; the slot heads a chain of
// candidates — indexes into the join's row store — linked through next in
// the order they were added, so a key's candidates come out in right-input
// order with no per-key list. A join with one key whose build keys are all
// numbers keys the table by the number itself (variant.NumberKey: the
// payload of the byte encoding after its number tag), so 1 meets 1.0, every
// NaN is one key, +0 and -0 stay apart and integers beyond 2^53 collapse,
// exactly as with the bytes. Any other join keys it by the byte encoding of
// its key tuple (variant.AppendGroupKey), held in buildKeys.

// buildKeys are the keys of the build rows, in drain order. While num holds,
// every key is one number and row r's is nums[r]; otherwise row r's is the
// byte encoding keys[ends[r-1]:ends[r]].
type buildKeys struct {
	num  bool
	nums []uint64
	keys []byte
	ends []int
}

func (k *buildKeys) rows() int {
	if k.num {
		return len(k.nums)
	}
	return len(k.ends)
}

// key returns row r's byte-encoded key.
func (k *buildKeys) key(r int32) []byte {
	lo := 0
	if r > 0 {
		lo = k.ends[r-1]
	}
	return k.keys[lo:k.ends[r]]
}

// toBytes re-encodes the numbers gathered so far as bytes: the first build
// key that is not a number ends the numeric table.
func (k *buildKeys) toBytes() {
	for _, bits := range k.nums {
		k.keys = variant.Float(math.Float64frombits(bits)).AppendGroupKey(k.keys)
		k.ends = append(k.ends, len(k.keys))
	}
	k.num, k.nums = false, nil
}

// add appends row i's key, read from the key vectors kh, reporting false
// when a key value is NULL: NULL never equals anything, so such a row
// neither builds nor probes.
func (k *buildKeys) add(kh *vector.Batch, i int) bool {
	if k.num {
		switch bits, c := numKeyAt(kh, i); c {
		case keyNull:
			return false
		case keyNumber:
			k.nums = append(k.nums, bits)
			return true
		}
		k.toBytes()
	}
	start := len(k.keys)
	var ok bool
	if k.keys, ok = appendJoinKey(k.keys, kh, i); !ok {
		k.keys = k.keys[:start]
		return false
	}
	k.ends = append(k.ends, len(k.keys))
	return true
}

// keyClass is what numKeyAt found at a row.
type keyClass uint8

const (
	keyNull keyClass = iota
	keyNumber
	keyOther // a string, boolean, array or object: no number key
)

// numKeyAt reads row i of a single-key vector set as a number key, typed or
// not.
func numKeyAt(kh *vector.Batch, i int) (uint64, keyClass) {
	if tc := kh.TypedCol(0); tc != nil && kh.Cols[0] == nil {
		switch {
		case tc.Null(i):
			return 0, keyNull
		case tc.Kind() == vector.TypedInt64:
			return variant.NumberKey(float64(tc.Ints()[i])), keyNumber
		case tc.Kind() == vector.TypedFloat64:
			return variant.NumberKey(tc.Floats()[i]), keyNumber
		}
		return 0, keyOther
	}
	switch v := kh.Cols[0][i]; v.Kind() {
	case variant.KindNull:
		return 0, keyNull
	case variant.KindInt:
		return variant.NumberKey(float64(v.AsInt())), keyNumber
	case variant.KindFloat:
		return variant.NumberKey(v.AsFloat()), keyNumber
	}
	return 0, keyOther
}

// appendJoinKey appends row i's byte-encoded key tuple to buf, reporting
// false when a key value is NULL. A join without keys gives every row the
// empty key.
func appendJoinKey(buf []byte, kh *vector.Batch, i int) ([]byte, bool) {
	for c := range kh.Cols {
		v := kh.Value(c, i)
		if v.IsNull() {
			return buf, false
		}
		buf = v.AppendGroupKey(buf)
	}
	return buf, true
}

// joinSlot is one distinct key: hash is the number key itself or the byte
// key's hash; row is 1 + the first build row holding the key, 0 for an empty
// slot; head and tail bound its candidate chain, -1 when it has none.
type joinSlot struct {
	hash       uint64
	row        int32
	head, tail int32
}

type joinTable struct {
	keys  *buildKeys
	slots []joinSlot
	shift uint8 // 64 - log2(len(slots))
	next  []int32
	// dup is set when a key gets a second candidate.
	dup bool
	// direct maps integer key k to its slot, direct[k-lo], -1 where no key
	// is (mapDirect): a typed int64 probe key finds its slot with one load,
	// without the hit-or-miss branches of findNum, which the branch
	// predictor cannot learn from a stream of probe keys.
	direct []int32
	lo     int64
}

// directSpan bounds the direct map: at most this many entries per slot,
// so a table of dense integer keys (1..n) maps and one of sparse ones
// (SSB's yyyymmdd dates) does not.
const directSpan = 4

// mapDirect sets direct when every key of a numeric table is an integer
// below 2^52 in magnitude — so a probe integer's number key equals one
// exactly when the integers are equal; -0 is no integer here, as +0 and -0
// stay apart — and the keys span at most directSpan entries per slot.
func (t *joinTable) mapDirect() {
	if !t.numeric() || len(t.keys.nums) == 0 {
		return
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, bits := range t.keys.nums {
		f := math.Float64frombits(bits)
		if !(math.Abs(f) < 1<<52) || variant.NumberKey(float64(int64(f))) != bits {
			return
		}
		lo, hi = min(lo, int64(f)), max(hi, int64(f))
	}
	if hi-lo >= int64(directSpan*len(t.slots)) {
		return
	}
	t.direct, t.lo = make([]int32, hi-lo+1), lo
	for i := range t.direct {
		t.direct[i] = -1
	}
	for s, sl := range t.slots {
		if sl.row != 0 {
			t.direct[int64(math.Float64frombits(sl.hash))-lo] = int32(s)
		}
	}
}

var joinSeed = maphash.MakeSeed()

// alloc sizes the table for the build keys, at most half full.
func (t *joinTable) alloc(k *buildKeys) {
	size, shift := 8, uint8(61)
	for size < 2*k.rows() {
		size, shift = size*2, shift-1
	}
	t.keys, t.slots, t.shift = k, make([]joinSlot, size), shift
}

func (t *joinTable) numeric() bool { return t.keys.num }

// insert returns the slot of build row r's key, claiming an empty one for it
// when the key is new.
func (t *joinTable) insert(r int32) int32 {
	var h uint64
	var s int32
	if t.numeric() {
		h = t.keys.nums[r]
		s = t.findNum(h)
	} else {
		key := t.keys.key(r)
		h = maphash.Bytes(joinSeed, key)
		s = t.findBytes(h, key)
	}
	if t.slots[s].row == 0 {
		t.slots[s] = joinSlot{hash: h, row: r + 1, head: -1, tail: -1}
	}
	return s
}

// findNum returns the slot holding number key bits, or the empty slot where
// it belongs.
func (t *joinTable) findNum(bits uint64) int32 {
	mask := uint64(len(t.slots) - 1)
	for i := (bits * 0x9e3779b97f4a7c15) >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.row == 0 || s.hash == bits {
			return int32(i)
		}
	}
}

// findBytes returns the slot holding the byte key of hash h, or the empty
// slot where it belongs.
func (t *joinTable) findBytes(h uint64, key []byte) int32 {
	mask := uint64(len(t.slots) - 1)
	for i := h >> t.shift; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.row == 0 || s.hash == h && bytes.Equal(t.keys.key(s.row-1), key) {
			return int32(i)
		}
	}
}

// push appends candidate m — the next row of the store — to slot s's chain.
func (t *joinTable) push(s int32, m int32) {
	t.next = append(t.next, -1)
	sl := &t.slots[s]
	if sl.head < 0 {
		sl.head = m
	} else {
		t.next[sl.tail] = m
		t.dup = true
	}
	sl.tail = m
}

// lookup sets found[i] for every row i of sel to the slot of its key in kh,
// or -1 when the table does not hold it, and returns found, grown to n rows.
// A numeric table reads a typed key vector in place, an int64 one through
// the direct map when the table has one.
func (t *joinTable) lookup(kh *vector.Batch, sel []int, n int, found []int32, buf []byte) ([]int32, []byte) {
	if cap(found) < n {
		found = make([]int32, n)
	}
	found = found[:n]
	if !t.numeric() {
		for _, i := range sel {
			var ok bool
			found[i] = -1
			if buf, ok = appendJoinKey(buf[:0], kh, i); ok {
				found[i] = t.hit(t.findBytes(maphash.Bytes(joinSeed, buf), buf))
			}
		}
		return found, buf
	}
	tc := kh.TypedCol(0)
	if tc == nil || kh.Cols[0] != nil {
		for _, i := range sel {
			found[i] = -1
			if bits, c := numKeyAt(kh, i); c == keyNumber {
				found[i] = t.hit(t.findNum(bits))
			}
		}
		return found, buf
	}
	switch tc.Kind() {
	case vector.TypedInt64:
		ints := tc.Ints()
		if t.direct != nil {
			for _, i := range sel {
				found[i] = -1
				if off := uint64(ints[i] - t.lo); off < uint64(len(t.direct)) && !tc.Null(i) {
					found[i] = t.direct[off]
				}
			}
			break
		}
		for _, i := range sel {
			found[i] = -1
			if !tc.Null(i) {
				found[i] = t.hit(t.findNum(variant.NumberKey(float64(ints[i]))))
			}
		}
	case vector.TypedFloat64:
		floats := tc.Floats()
		for _, i := range sel {
			found[i] = -1
			if !tc.Null(i) {
				found[i] = t.hit(t.findNum(variant.NumberKey(floats[i])))
			}
		}
	default: // a string or boolean key never equals a number
		for _, i := range sel {
			found[i] = -1
		}
	}
	return found, buf
}

// hit is s when it holds a key, -1 for an empty slot.
func (t *joinTable) hit(s int32) int32 {
	if t.slots[s].row == 0 {
		return -1
	}
	return s
}
