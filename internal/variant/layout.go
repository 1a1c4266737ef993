package variant

import (
	"math"
	"unsafe"
)

// This file is the only one in jsonpark (outside benchmark/) that imports
// unsafe; the unsafeimport analyzer in internal/lint enforces that. It owns
// the physical layout of Value and the three accessors that turn the layout
// back into Go strings, slices and objects. Everything else in the package
// goes through str/elems/object and the constructors.

// Value is an immutable dynamically typed value. The zero Value is SQL NULL.
// Values are cheap to copy — three words, one of them a pointer the garbage
// collector has to trace — and arrays and objects share their backing
// storage, so callers must not mutate the slices returned by AsArray or Keys.
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
