package variant

import (
	"math"
	"slices"
	"strings"
	"unsafe"
)

// This file is the only one in jsonpark (outside benchmark/) that imports
// unsafe; the unsafeimport analyzer in internal/lint enforces that. It owns
// the physical layout of Value, the three accessors that turn the layout
// back into Go strings, slices and objects, and Freeze, which lays a value
// graph out in one pointer-free block. Everything else in the package goes
// through str/elems/object and the constructors.

// Value is an immutable dynamically typed value. The zero Value is SQL NULL.
// Values are cheap to copy — three words, one of them a pointer — and arrays
// and objects share their backing storage, so callers must not mutate the
// slices returned by AsArray or Keys. A value built on the heap is a graph
// the garbage collector traces on every cycle; a stored value is not:
// storage freezes its sealed chunks (Freeze), and a frozen graph is one
// block the collector marks without scanning.
//
// Layout (24 bytes): ptr holds the string bytes, the first array element or
// the *Object; num holds the bool/int64/float64 payload of a scalar and the
// length of a string or array; kind tags the union. A string or slice header
// is reassembled from (ptr, num) on access, so constructors allocate nothing.
type Value struct {
	ptr  unsafe.Pointer
	num  uint64
	kind Kind
}

// Null is the SQL NULL value.
var Null = Value{kind: KindNull}

// Bool returns a boolean value.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Int returns an integer value.
func Int(i int64) Value { return Value{kind: KindInt, num: uint64(i)} }

// Float returns a double value.
func Float(f float64) Value { return Value{kind: KindFloat, num: math.Float64bits(f)} }

// String returns a string value sharing s's bytes.
func String(s string) Value {
	return Value{kind: KindString, ptr: unsafe.Pointer(unsafe.StringData(s)), num: uint64(len(s))}
}

// Array returns an array value wrapping vs without copying.
func Array(vs ...Value) Value { return ArrayOf(vs) }

// ArrayOf returns an array value backed directly by vs[:len(vs)]. Capacity
// beyond len(vs) is not retained: AsArray hands back a slice with cap == len.
// A nil vs stays nil through AsArray; an empty non-nil vs stays non-nil.
func ArrayOf(vs []Value) Value {
	return Value{kind: KindArray, ptr: unsafe.Pointer(unsafe.SliceData(vs)), num: uint64(len(vs))}
}

// ObjectValue wraps a finished Object as a Value.
func ObjectValue(o *Object) Value { return Value{kind: KindObject, ptr: unsafe.Pointer(o)} }

// str returns the string payload, or "" when v is not a string.
func (v Value) str() string {
	if v.kind != KindString {
		return ""
	}
	return unsafe.String((*byte)(v.ptr), int(v.num))
}

// elems returns the array payload, or nil when v is not an array.
func (v Value) elems() []Value {
	if v.kind != KindArray {
		return nil
	}
	return unsafe.Slice((*Value)(v.ptr), int(v.num))
}

// object returns the object payload, or nil when v is not an object.
func (v Value) object() *Object {
	if v.kind != KindObject {
		return nil
	}
	return (*Object)(v.ptr)
}

// Freeze deep-copies vs — strings, arrays, objects, object keys — into one
// []uint64 allocation and returns the copy, whose backing array is that
// block (cap == len). The block holds no pointer the garbage collector has
// to follow: every pointer stored in it points back into it or at a
// package-level sentinel, so it is allocated noscan and each collection
// marks it as one object instead of re-marking every nested value. Any
// Value, string, key slice or *Object taken out of the copy is an interior
// pointer and keeps the whole block alive. The copy is immutable: Set on a
// frozen object panics, since it would store a heap pointer the collector
// never sees. Equal keys share their bytes within a block.
func Freeze(vs []Value) []Value {
	out, _ := freeze(vs)
	return out
}

// Word counts of the laid-out types; the block is a []uint64, so every piece
// is word-aligned.
const (
	valueWords  = int(unsafe.Sizeof(Value{}) / 8)
	stringWords = int(unsafe.Sizeof("") / 8)
	objectWords = int(unsafe.Sizeof(Object{}) / 8)
)

// Sentinels for the zero-length pieces of a frozen value: a zero-length
// piece of the block could point one past its end, into whatever the
// allocator put next. An empty non-nil array points at frozenEmptyArray
// (a nil one stays nil, an empty string is nil), and a frozen object of at
// most smallObjectKeys fields marks itself frozen with frozenSmallIndex.
var (
	frozenEmptyArray [1]Value
	frozenSmallIndex uint32
)

// freeze is Freeze that also returns the block, for tests that check every
// stored pointer lands inside it.
func freeze(vs []Value) ([]Value, []uint64) {
	if len(vs) == 0 {
		return nil, nil
	}
	f := freezer{keys: make(map[string]string)}
	n := valueWords * len(vs)
	for _, v := range vs {
		n += f.size(v)
	}
	f.blk = make([]uint64, n)
	out := unsafe.Slice((*Value)(f.alloc(valueWords*len(vs))), len(vs))
	for i, v := range vs {
		out[i] = f.put(v)
	}
	return out, f.blk
}

// freezer lays values out in blk, bump-allocating from off. keys interns
// object keys: size records each distinct key once, put maps it to its
// bytes in the block. put writes a value's payload and returns its frozen
// header.
type freezer struct {
	blk  []uint64
	off  int
	keys map[string]string
}

func words(bytes int) int { return (bytes + 7) / 8 }

// size returns the words v's payload takes in the block (its own Value
// header is counted by the array, object or slice that holds it).
func (f *freezer) size(v Value) int {
	switch v.kind {
	case KindString:
		return words(int(v.num))
	case KindArray:
		elems := v.elems()
		n := valueWords * len(elems)
		for _, e := range elems {
			n += f.size(e)
		}
		return n
	case KindObject:
		o := v.object()
		if o == nil {
			return 0
		}
		n := objectWords + (stringWords+valueWords)*len(o.keys)
		if len(o.keys) > smallObjectKeys {
			n += words(4 * len(o.keys))
		}
		for i, k := range o.keys {
			if _, ok := f.keys[k]; !ok {
				f.keys[k] = ""
				n += words(len(k))
			}
			n += f.size(o.values[i])
		}
		return n
	}
	return 0
}

// alloc hands out the next n > 0 words; indexing blk bounds-checks the
// sizing pass.
func (f *freezer) alloc(n int) unsafe.Pointer {
	p := unsafe.Pointer(&f.blk[f.off])
	f.off += n
	_ = f.blk[f.off-1]
	return p
}

func (f *freezer) str(s string) string {
	if s == "" {
		return ""
	}
	p := (*byte)(f.alloc(words(len(s))))
	copy(unsafe.Slice(p, len(s)), s)
	return unsafe.String(p, len(s))
}

func (f *freezer) put(v Value) Value {
	switch v.kind {
	case KindString:
		return String(f.str(v.str()))
	case KindArray:
		elems := v.elems()
		if len(elems) == 0 {
			if v.ptr == nil {
				return v
			}
			return ArrayOf(frozenEmptyArray[:0])
		}
		out := unsafe.Slice((*Value)(f.alloc(valueWords*len(elems))), len(elems))
		for i, e := range elems {
			out[i] = f.put(e)
		}
		return ArrayOf(out)
	case KindObject:
		o := v.object()
		if o == nil {
			return v
		}
		fo := (*Object)(f.alloc(objectWords))
		fo.frozen = &frozenSmallIndex
		n := len(o.keys)
		if n == 0 {
			return ObjectValue(fo)
		}
		keys := unsafe.Slice((*string)(f.alloc(stringWords*n)), n)
		vals := unsafe.Slice((*Value)(f.alloc(valueWords*n)), n)
		for i, k := range o.keys {
			fk := f.keys[k]
			if fk == "" && k != "" {
				fk = f.str(k)
				f.keys[k] = fk
			}
			keys[i] = fk
			vals[i] = f.put(o.values[i])
		}
		fo.keys, fo.values = keys, vals
		if n > smallObjectKeys {
			// The wide-object index lives in the block as field positions
			// sorted by key, never as a map: a map referenced only from
			// noscan memory would be freed under a reader.
			idx := unsafe.Slice((*uint32)(f.alloc(words(4*n))), n)
			for i := range idx {
				idx[i] = uint32(i)
			}
			slices.SortFunc(idx, func(a, b uint32) int { return strings.Compare(keys[a], keys[b]) })
			fo.frozen = &idx[0]
		}
		return ObjectValue(fo)
	}
	return v
}

// byKey returns a frozen wide object's field positions sorted by key; only
// valid when o.frozen is set and len(o.keys) > smallObjectKeys.
func (o *Object) byKey() []uint32 { return unsafe.Slice(o.frozen, len(o.keys)) }
