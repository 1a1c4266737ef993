// Package variant implements the dynamically typed value model shared by
// every layer of jsonpark: the JSONiq runtime, the SQL engine, the Snowpark
// API, and the storage layer. It plays the role of Snowflake's VARIANT type:
// a tagged union over null, boolean, integer, double, string, array and
// object, with total ordering, numeric coercion and JSON (de)serialization.
package variant

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The dynamic kinds, in comparison order (null < bool < number < string <
// array < object). Int and Float compare as numbers.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindArray
	KindObject
)

// String returns the SQL-style name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "NUMBER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindArray:
		return "ARRAY"
	case KindObject:
		return "OBJECT"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// smallObjectKeys is the largest field count an Object resolves by linear
// scan. Nested documents are dominated by records of a handful of fields,
// where comparing up to eight short keys costs no more than hashing one
// (BenchmarkObjectGet) and a map per record is pure allocator and
// garbage-collector load; the index is built once, on the Set that adds
// field smallObjectKeys+1.
const smallObjectKeys = 8

// Object is an insertion-ordered string-keyed record.
type Object struct {
	keys   []string
	values []Value
	index  map[string]int // nil while len(keys) <= smallObjectKeys, and when frozen
	// frozen is nil in a builder. Freeze sets it: at a frozen wide object's
	// field positions sorted by key (byKey), at a sentinel otherwise.
	frozen *uint32
}

// NewObject returns an empty mutable object builder.
func NewObject() *Object { return &Object{} }

// NewObjectSized returns an empty object builder with room for n fields, for
// decoders that know (or can bound) the field count up front.
func NewObjectSized(n int) *Object {
	return &Object{keys: make([]string, 0, n), values: make([]Value, 0, n)}
}

// ObjectFromPairs builds an object value from alternating key, value pairs.
func ObjectFromPairs(pairs ...any) Value {
	if len(pairs)%2 != 0 {
		panic("variant.ObjectFromPairs: odd number of arguments")
	}
	o := NewObjectSized(len(pairs) / 2)
	for i := 0; i < len(pairs); i += 2 {
		key, ok := pairs[i].(string)
		if !ok {
			panic("variant.ObjectFromPairs: key is not a string")
		}
		v, ok := pairs[i+1].(Value)
		if !ok {
			panic("variant.ObjectFromPairs: value is not a variant.Value")
		}
		o.Set(key, v)
	}
	return ObjectValue(o)
}

// Set inserts or replaces a field. It returns the object for chaining. Set
// panics on a frozen object (Freeze): stored values are immutable.
func (o *Object) Set(key string, v Value) *Object {
	if o.frozen != nil {
		panic("variant: Set on a frozen object")
	}
	if i := o.find(key); i >= 0 {
		o.values[i] = v
		return o
	}
	if o.index == nil && len(o.keys) == smallObjectKeys {
		o.index = make(map[string]int, max(cap(o.keys), 2*smallObjectKeys))
		for i, k := range o.keys {
			o.index[k] = i
		}
	}
	if o.index != nil {
		o.index[key] = len(o.keys)
	}
	o.keys = append(o.keys, key)
	o.values = append(o.values, v)
	return o
}

// find returns the position of key, or -1 when absent.
func (o *Object) find(key string) int {
	if o.index != nil {
		if i, ok := o.index[key]; ok {
			return i
		}
		return -1
	}
	if o.frozen != nil && len(o.keys) > smallObjectKeys {
		idx := o.byKey()
		if i, ok := slices.BinarySearchFunc(idx, key, func(p uint32, k string) int {
			return strings.Compare(o.keys[p], k)
		}); ok {
			return int(idx[i])
		}
		return -1
	}
	for i, k := range o.keys {
		if k == key {
			return i
		}
	}
	return -1
}

// Get returns the value of a field and whether it is present.
func (o *Object) Get(key string) (Value, bool) {
	if o == nil {
		return Null, false
	}
	if i := o.find(key); i >= 0 {
		return o.values[i], true
	}
	return Null, false
}

// Len returns the number of fields.
func (o *Object) Len() int {
	if o == nil {
		return 0
	}
	return len(o.keys)
}

// Keys returns the insertion-ordered field names. Callers must not mutate it.
func (o *Object) Keys() []string {
	if o == nil {
		return nil
	}
	return o.keys
}

// ValueAt returns the i-th field value in insertion order.
func (o *Object) ValueAt(i int) Value { return o.values[i] }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNumber reports whether v is an Int or Float.
func (v Value) IsNumber() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsBool returns the boolean payload; v must be KindBool.
func (v Value) AsBool() bool { return v.num != 0 }

// AsInt returns the integer payload; v must be KindInt.
func (v Value) AsInt() int64 { return int64(v.num) }

// AsFloat returns a float64 view of a numeric value (Int or Float).
func (v Value) AsFloat() float64 {
	if v.kind == KindInt {
		return float64(int64(v.num))
	}
	return math.Float64frombits(v.num)
}

// AsString returns the string payload, or "" when v is not a string.
func (v Value) AsString() string { return v.str() }

// AsArray returns the backing slice of an array value, or nil when v is not
// an array. Callers must not mutate it. The slice has cap == len, so an
// append to it always copies and can never write into storage shared with
// another Value.
func (v Value) AsArray() []Value { return v.elems() }

// AsObject returns the backing Object of an object value (possibly nil), or
// nil when v is not an object.
func (v Value) AsObject() *Object { return v.object() }

// Field returns the named field of an object value. Accessing a field of a
// non-object, or a missing field, yields NULL — VARIANT semantics.
func (v Value) Field(name string) Value {
	out, _ := v.object().Get(name)
	return out
}

// Index returns the i-th element of an array value (0-based). Out-of-range
// or non-array access yields NULL.
func (v Value) Index(i int) Value {
	if arr := v.elems(); i >= 0 && i < len(arr) {
		return arr[i]
	}
	return Null
}

// Len returns the number of elements of an array or fields of an object,
// and 0 for anything else.
func (v Value) Len() int {
	switch v.kind {
	case KindArray:
		return len(v.elems())
	case KindObject:
		return v.object().Len()
	}
	return 0
}

// Truthy reports the JSONiq effective boolean value: NULL and false are
// false; everything else follows JSONiq atomization rules (non-zero numbers,
// non-empty strings are true; arrays/objects are true).
func (v Value) Truthy() bool {
	switch v.kind {
	case KindNull:
		return false
	case KindBool:
		return v.num != 0
	case KindInt:
		return int64(v.num) != 0
	case KindFloat:
		f := math.Float64frombits(v.num)
		return f != 0 && !math.IsNaN(f)
	case KindString:
		return v.str() != ""
	}
	return true
}

// Compare totally orders two values: NULL first, then by kind order, numbers
// compared numerically across Int/Float (CompareFloat: NaN last), strings lexicographically, arrays
// element-wise, objects by sorted key/value pairs. It returns -1, 0 or +1.
func Compare(a, b Value) int {
	ra, rb := rankOf(a.kind), rankOf(b.kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindNull:
		return 0
	case KindBool:
		return boolCompare(a.num != 0, b.num != 0)
	case KindInt, KindFloat:
		if a.kind == KindInt && b.kind == KindInt {
			x, y := int64(a.num), int64(b.num)
			switch {
			case x < y:
				return -1
			case x > y:
				return 1
			}
			return 0
		}
		return CompareFloat(a.AsFloat(), b.AsFloat())
	case KindString:
		return strings.Compare(a.str(), b.str())
	case KindArray:
		ea, eb := a.elems(), b.elems()
		n := min(len(ea), len(eb))
		for i := 0; i < n; i++ {
			if c := Compare(ea[i], eb[i]); c != 0 {
				return c
			}
		}
		return len(ea) - len(eb)
	case KindObject:
		oa, ob := a.object(), b.object()
		ka := append([]string(nil), oa.Keys()...)
		kb := append([]string(nil), ob.Keys()...)
		sort.Strings(ka)
		sort.Strings(kb)
		n := len(ka)
		if len(kb) < n {
			n = len(kb)
		}
		for i := 0; i < n; i++ {
			if c := strings.Compare(ka[i], kb[i]); c != 0 {
				return c
			}
			va, _ := oa.Get(ka[i])
			vb, _ := ob.Get(kb[i])
			if c := Compare(va, vb); c != 0 {
				return c
			}
		}
		return len(ka) - len(kb)
	}
	return 0
}

// CompareFloat is Compare's order on doubles, Snowflake's: NaN equals NaN
// and sorts above +Inf, so the order stays total; +0 and -0 compare equal.
func CompareFloat(x, y float64) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case x == y:
		return 0
	case x != x && y != y:
		return 0
	case x != x:
		return 1
	}
	return -1
}

func rankOf(k Kind) int {
	switch k {
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	case KindArray:
		return 4
	case KindObject:
		return 5
	case KindBool:
		return 1
	}
	return 0 // null
}

func boolCompare(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	}
	return 1
}

// Equal reports deep equality under Compare's ordering.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// HashKey returns a string usable as a map key for grouping and joins. It is
// injective for scalar values and deep for arrays/objects.
func (v Value) HashKey() string {
	var b strings.Builder
	v.appendHash(&b)
	return b.String()
}

func (v Value) appendHash(b *strings.Builder) {
	switch v.kind {
	case KindNull:
		b.WriteByte('n')
	case KindBool:
		if v.num != 0 {
			b.WriteString("bt")
		} else {
			b.WriteString("bf")
		}
	case KindInt:
		// Integers and integral floats hash identically so that 1 and 1.0
		// group together, matching numeric comparison semantics.
		f := float64(int64(v.num))
		b.WriteByte('d')
		b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
	case KindFloat:
		b.WriteByte('d')
		b.WriteString(strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64))
	case KindString:
		b.WriteByte('s')
		str := v.str()
		b.WriteString(strconv.Itoa(len(str)))
		b.WriteByte(':')
		b.WriteString(str)
	case KindArray:
		b.WriteByte('[')
		for _, e := range v.elems() {
			e.appendHash(b)
			b.WriteByte(',')
		}
		b.WriteByte(']')
	case KindObject:
		b.WriteByte('{')
		o := v.object()
		keys := append([]string(nil), o.Keys()...)
		sort.Strings(keys)
		for _, k := range keys {
			b.WriteString(k)
			b.WriteByte('=')
			f, _ := o.Get(k)
			f.appendHash(b)
			b.WriteByte(',')
		}
		b.WriteByte('}')
	}
}

// DeepSizeBytes estimates the uncompressed in-memory footprint of v. The
// storage layer uses it for micro-partition sizing and bytes-scanned
// accounting.
func (v Value) DeepSizeBytes() int64 {
	switch v.kind {
	case KindNull:
		return 1
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 8
	case KindString:
		return int64(8 + len(v.str()))
	case KindArray:
		var n int64 = 8
		for _, e := range v.elems() {
			n += e.DeepSizeBytes()
		}
		return n
	case KindObject:
		var n int64 = 8
		o := v.object()
		for i, k := range o.Keys() {
			n += int64(len(k)) + o.ValueAt(i).DeepSizeBytes()
		}
		return n
	}
	return 0
}
