package variant

import (
	"fmt"
	"reflect"
	"testing"
	"unsafe"
)

func TestValueIs24Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Value{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 24", got)
	}
	var zero Value
	if !zero.IsNull() || zero.Kind() != KindNull {
		t.Fatalf("zero Value is %v, want NULL", zero.Kind())
	}
}

// sinkValue keeps the compiler from proving a constructor's result dead.
var sinkValue Value

func TestConstructorsAndAccessorsDoNotAllocate(t *testing.T) {
	s := fmt.Sprint("heap-", 42) // a string the compiler cannot fold
	elems := []Value{Int(1), Int(2), Int(3)}
	obj := NewObject().Set("pt", Float(1.5)).Set("eta", Float(-0.5))
	ov, av := ObjectValue(obj), ArrayOf(elems)
	cases := []struct {
		name string
		fn   func()
	}{
		{"String", func() { sinkValue = String(s) }},
		{"ArrayOf", func() { sinkValue = ArrayOf(elems) }},
		{"ObjectValue", func() { sinkValue = ObjectValue(obj) }},
		{"Field", func() { sinkValue = ov.Field("eta") }},
		{"Field miss", func() { sinkValue = ov.Field("phi") }},
		{"Index", func() { sinkValue = av.Index(2) }},
		{"AsString", func() { sinkValue = String(String(s).AsString()) }},
		{"AsArray", func() { sinkValue = ArrayOf(av.AsArray()) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.fn); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, n)
		}
	}
}

// TestWrongKindAccessors pins the VARIANT contract that a payload accessor
// on a value of another kind yields the empty payload. With the length of a
// string or array stored in the same word as an int64 or float64, this is a
// memory-safety property, not a convenience: Int(1<<40).AsString() must not
// manufacture a terabyte-long string header.
func TestWrongKindAccessors(t *testing.T) {
	obj := ObjectFromPairs("a", Int(1))
	values := []Value{
		Null, Bool(true), Int(1 << 40), Int(-1), Float(3.5),
		String("text"), Array(Int(1), Int(2)), obj,
	}
	for _, v := range values {
		k := v.Kind()
		if k != KindString && v.AsString() != "" {
			t.Errorf("%s.AsString() = %q, want empty", k, v.AsString())
		}
		if k != KindArray {
			if v.AsArray() != nil {
				t.Errorf("%s.AsArray() = %v, want nil", k, v.AsArray())
			}
			if !v.Index(0).IsNull() {
				t.Errorf("%s.Index(0) = %v, want NULL", k, v.Index(0))
			}
		}
		if k != KindObject {
			if v.AsObject() != nil {
				t.Errorf("%s.AsObject() = %v, want nil", k, v.AsObject())
			}
			if !v.Field("a").IsNull() {
				t.Errorf("%s.Field(a) = %v, want NULL", k, v.Field("a"))
			}
		}
		if k != KindArray && k != KindObject && v.Len() != 0 {
			t.Errorf("%s.Len() = %d, want 0", k, v.Len())
		}
	}
	if got := String("text").AsString(); got != "text" {
		t.Errorf("String round trip = %q", got)
	}
	if got := String("").AsString(); got != "" {
		t.Errorf("empty String round trip = %q", got)
	}
}

func TestArrayNilVersusEmpty(t *testing.T) {
	if got := ArrayOf(nil).AsArray(); got != nil {
		t.Errorf("ArrayOf(nil).AsArray() = %#v, want nil", got)
	}
	if got := Array().AsArray(); got != nil {
		t.Errorf("Array().AsArray() = %#v, want nil", got)
	}
	if got := ArrayOf([]Value{}).AsArray(); got == nil || len(got) != 0 {
		t.Errorf("ArrayOf([]Value{}).AsArray() = %#v, want empty non-nil", got)
	}
	// An empty tail slice of a live array must stay non-nil and must not
	// read past the allocation it came from.
	backing := []Value{Int(1), Int(2)}
	if got := ArrayOf(backing[2:]).AsArray(); got == nil || len(got) != 0 {
		t.Errorf("ArrayOf(backing[2:]).AsArray() = %#v, want empty non-nil", got)
	}
	for _, v := range []Value{ArrayOf(nil), ArrayOf([]Value{})} {
		if v.Kind() != KindArray || v.Len() != 0 {
			t.Errorf("kind %s len %d, want empty ARRAY", v.Kind(), v.Len())
		}
		if v.JSON() != "[]" {
			t.Errorf("JSON = %s, want []", v.JSON())
		}
		if got := v.AppendBinary(nil); !reflect.DeepEqual(got, []byte{serArray, 0}) {
			t.Errorf("AppendBinary = %x, want 0600", got)
		}
	}
}

// TestAsArrayAppendCannotClobber: AsArray returns cap == len, so appending
// to the result reallocates instead of writing into spare capacity that a
// sibling Value built from the same backing slice can see.
func TestAsArrayAppendCannotClobber(t *testing.T) {
	backing := make([]Value, 2, 8)
	backing[0], backing[1] = Int(1), Int(2)
	short := ArrayOf(backing)
	long := ArrayOf(backing[:3]) // shares storage; element 2 is NULL
	got := short.AsArray()
	if cap(got) != len(got) {
		t.Fatalf("cap(AsArray()) = %d, len %d; want equal", cap(got), len(got))
	}
	_ = append(got, String("intruder"))
	if e := long.Index(2); !e.IsNull() {
		t.Fatalf("append through AsArray() wrote %v into shared storage", e)
	}
}

func TestObjectAcrossMapThreshold(t *testing.T) {
	for _, n := range []int{0, 1, 7, 8, 9, 64} {
		for _, presized := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dkeys/presized=%t", n, presized), func(t *testing.T) {
				o := NewObject()
				if presized {
					o = NewObjectSized(n)
				}
				want := make([]string, n)
				for i := 0; i < n; i++ {
					// Reverse-lexicographic names: insertion order is not
					// sorted order, so a sorting bug cannot hide.
					want[i] = fmt.Sprintf("key%02d", n-i)
					o.Set(want[i], Int(int64(i)))
					if o.Len() != i+1 {
						t.Fatalf("Len after %d sets = %d", i+1, o.Len())
					}
				}
				if hasIndex := o.index != nil; hasIndex != (n > smallObjectKeys) {
					t.Errorf("index built = %t at %d keys (threshold %d)", hasIndex, n, smallObjectKeys)
				}
				if n > 0 && !reflect.DeepEqual(o.Keys(), want) {
					t.Errorf("Keys() = %v, want insertion order %v", o.Keys(), want)
				}
				for i, k := range want {
					if v, ok := o.Get(k); !ok || v.AsInt() != int64(i) {
						t.Errorf("Get(%s) = %v,%t, want %d,true", k, v, ok, i)
					}
				}
				for _, miss := range []string{"", "key", "key00", "key999", "absent"} {
					if v, ok := o.Get(miss); ok || !v.IsNull() {
						t.Errorf("Get(%q) = %v,%t, want NULL,false", miss, v, ok)
					}
				}
				// A duplicate Set overwrites in place: same slot, same order,
				// same length — on both sides of the threshold.
				for i, k := range want {
					o.Set(k, String(k))
					if o.Len() != n {
						t.Fatalf("Len after overwriting %s = %d, want %d", k, o.Len(), n)
					}
					if got := o.ValueAt(i); got.AsString() != k {
						t.Errorf("ValueAt(%d) after overwrite = %v, want %q", i, got, k)
					}
				}
				if n > 0 && !reflect.DeepEqual(o.Keys(), want) {
					t.Errorf("Keys() after overwrites = %v, want %v", o.Keys(), want)
				}
			})
		}
	}
	var nilObj *Object
	if v, ok := nilObj.Get("a"); ok || !v.IsNull() || nilObj.Len() != 0 || nilObj.Keys() != nil {
		t.Errorf("nil *Object is not an empty object")
	}
}

// TestDecodersPresizeObjects: an object decoded from either wire format
// lands in exactly-sized key/value storage instead of append-grown slices.
func TestDecodersPresizeObjects(t *testing.T) {
	src := ObjectFromPairs("a", Int(1), "b", Int(2), "c", Int(3), "d", Int(4), "e", Int(5))
	bin, _, err := DecodeBinary(src.AppendBinary(nil))
	if err != nil {
		t.Fatal(err)
	}
	js, err := ParseJSON([]byte(src.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]Value{"binary": bin, "json": js} {
		o := v.AsObject()
		if cap(o.keys) != 5 || cap(o.values) != 5 {
			t.Errorf("%s: cap(keys)=%d cap(values)=%d, want 5 and 5", name, cap(o.keys), cap(o.values))
		}
	}
	// A hostile field count must not become an allocation request.
	huge := []byte{serObject, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := DecodeBinary(huge); err == nil {
		t.Error("decoding an object with 2^63 fields and no bytes succeeded")
	}
	hugeArr := []byte{serArray, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := DecodeBinary(hugeArr); err == nil {
		t.Error("decoding an array with 2^63 elements and no bytes succeeded")
	}
}
