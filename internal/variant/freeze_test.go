package variant

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// checkFrozen walks a frozen value and fails unless every pointer it holds
// lies inside blk, is nil, or is one of the package sentinels — the
// closed-under-pointers rule that lets the block be noscan.
func checkFrozen(t *testing.T, blk []uint64, v Value) {
	t.Helper()
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(blk)))
	hi := lo + uintptr(len(blk))*8
	inside := func(what string, p unsafe.Pointer, size uintptr) {
		t.Helper()
		if a := uintptr(p); a < lo || a+size > hi || size == 0 {
			t.Fatalf("%s at %#x (+%d) is outside the block [%#x, %#x)", what, a, size, lo, hi)
		}
	}
	var walk func(v Value)
	walk = func(v Value) {
		switch v.kind {
		case KindString:
			if v.num == 0 {
				if v.ptr != nil {
					t.Fatalf("empty string points at %p, want nil", v.ptr)
				}
				return
			}
			inside("string bytes", v.ptr, uintptr(v.num))
		case KindArray:
			if v.num == 0 {
				if v.ptr != nil && v.ptr != unsafe.Pointer(&frozenEmptyArray) {
					t.Fatalf("empty array points at %p, want nil or the sentinel", v.ptr)
				}
				return
			}
			inside("array elements", v.ptr, uintptr(v.num)*unsafe.Sizeof(Value{}))
			for _, e := range v.elems() {
				walk(e)
			}
		case KindObject:
			o := v.object()
			if o == nil {
				return
			}
			inside("object", unsafe.Pointer(o), unsafe.Sizeof(Object{}))
			if o.index != nil {
				t.Fatalf("frozen object carries a map index")
			}
			if len(o.keys) == 0 {
				if o.keys != nil || o.values != nil || o.frozen != &frozenSmallIndex {
					t.Fatalf("frozen empty object: keys %p values %p frozen %p", o.keys, o.values, o.frozen)
				}
				return
			}
			inside("key headers", unsafe.Pointer(unsafe.SliceData(o.keys)), uintptr(len(o.keys))*unsafe.Sizeof(""))
			inside("field values", unsafe.Pointer(unsafe.SliceData(o.values)), uintptr(len(o.values))*unsafe.Sizeof(Value{}))
			if len(o.keys) > smallObjectKeys {
				inside("field index", unsafe.Pointer(o.frozen), uintptr(len(o.keys))*4)
			} else if o.frozen != &frozenSmallIndex {
				t.Fatalf("small frozen object points its index at %p, want the sentinel", o.frozen)
			}
			for i, k := range o.keys {
				if k == "" {
					if unsafe.StringData(k) != nil {
						t.Fatalf("empty key points at %p, want nil", unsafe.StringData(k))
					}
				} else {
					inside("key bytes", unsafe.Pointer(unsafe.StringData(k)), uintptr(len(k)))
				}
				walk(o.values[i])
			}
		}
	}
	walk(v)
}

// checkFreeze freezes vs and checks the copy against the originals —
// identical binary encoding, JSON and exact equality — and the block's
// pointers, both straight away and after two collections.
func checkFreeze(t *testing.T, vs []Value) {
	t.Helper()
	frozen, blk := freeze(vs)
	if len(frozen) != len(vs) || cap(frozen) != len(vs) {
		t.Fatalf("Freeze: len %d cap %d, want %d", len(frozen), cap(frozen), len(vs))
	}
	if len(vs) > 0 && unsafe.Pointer(unsafe.SliceData(frozen)) != unsafe.Pointer(unsafe.SliceData(blk)) {
		t.Fatalf("Freeze's slice does not start the block")
	}
	for round := 0; round < 2; round++ {
		if round > 0 {
			runtime.GC()
			runtime.GC()
		}
		for i, v := range vs {
			f := frozen[i]
			checkFrozen(t, blk, f)
			if !BinaryEqual(f, v) {
				t.Fatalf("value %d: frozen %s, want %s", i, f.JSON(), v.JSON())
			}
			if f.JSON() != v.JSON() {
				t.Fatalf("value %d: frozen JSON %s, want %s", i, f.JSON(), v.JSON())
			}
			if !bytes.Equal(f.AppendBinary(nil), v.AppendBinary(nil)) {
				t.Fatalf("value %d: frozen binary differs", i)
			}
			if Compare(f, v) != 0 || f.HashKey() != v.HashKey() {
				t.Fatalf("value %d: frozen compares unequal", i)
			}
		}
	}
}

func TestFreezeGoldenCorpus(t *testing.T) {
	var vs []Value
	for _, c := range goldenCorpus() {
		vs = append(vs, c.v)
	}
	checkFreeze(t, vs)
	for _, v := range vs {
		checkFreeze(t, []Value{v})
	}
	if Freeze(nil) != nil {
		t.Error("Freeze(nil) is not nil")
	}
}

func TestFreezeKeepsNilVersusEmpty(t *testing.T) {
	frozen := Freeze([]Value{ArrayOf(nil), ArrayOf([]Value{}), String("")})
	if frozen[0].AsArray() != nil {
		t.Error("a frozen nil array became non-nil")
	}
	if got := frozen[1].AsArray(); got == nil || len(got) != 0 {
		t.Errorf("a frozen empty array is %#v, want empty non-nil", got)
	}
	if frozen[2].Kind() != KindString || frozen[2].AsString() != "" {
		t.Errorf("a frozen empty string is %v", frozen[2])
	}
}

// TestFreezeWideObjectLookups: a frozen object past smallObjectKeys resolves
// fields by binary search over its in-block index, present and absent.
func TestFreezeWideObjectLookups(t *testing.T) {
	for _, n := range []int{0, 1, 8, 9, 33} {
		o := NewObject()
		for i := 0; i < n; i++ {
			o.Set(fmt.Sprintf("k%02d", n-i), Int(int64(i)))
		}
		f := Freeze([]Value{ObjectValue(o)})[0].AsObject()
		for i := 0; i < n; i++ {
			if v, ok := f.Get(fmt.Sprintf("k%02d", n-i)); !ok || v.AsInt() != int64(i) {
				t.Errorf("%d keys: Get(k%02d) = %v,%t, want %d", n, n-i, v, ok, i)
			}
		}
		for _, miss := range []string{"", "k", "k00", "k99", "zz"} {
			if v, ok := f.Get(miss); ok || !v.IsNull() {
				t.Errorf("%d keys: Get(%q) = %v,%t, want NULL,false", n, miss, v, ok)
			}
		}
	}
}

// TestFreezeSharesKeys: equal keys across a block's objects are stored once.
func TestFreezeSharesKeys(t *testing.T) {
	vs := []Value{ObjectFromPairs("pt", Int(1)), ObjectFromPairs("pt", Int(2))}
	f := Freeze(vs)
	a, b := f[0].AsObject().Keys()[0], f[1].AsObject().Keys()[0]
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Error("equal keys of one block are stored twice")
	}
}

func TestSetOnFrozenObjectPanics(t *testing.T) {
	for _, n := range []int{0, 3, 12} {
		o := NewObject()
		for i := 0; i < n; i++ {
			o.Set(fmt.Sprint("k", i), Int(int64(i)))
		}
		f := Freeze([]Value{ObjectValue(o)})[0].AsObject()
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "frozen") {
					t.Errorf("%d fields: Set on a frozen object: recovered %v, want a panic", n, r)
				}
			}()
			f.Set("k0", String("heap"))
		}()
		if n > 0 && f.ValueAt(0).AsInt() != 0 {
			t.Errorf("%d fields: the failed Set wrote %v", n, f.ValueAt(0))
		}
	}
	// The builder it was frozen from stays mutable.
	NewObject().Set("a", Int(1))
}

// TestFrozenValueOutlivesItsSlice: a value taken out of a frozen block keeps
// the whole block alive — a wide object's index included — after everything
// else referring to the block is gone and the heap has been reused.
func TestFrozenValueOutlivesItsSlice(t *testing.T) {
	freezeOne := func() Value {
		o := NewObject()
		for i := 0; i < 20; i++ {
			o.Set(fmt.Sprintf("key-%02d", 19-i), String(fmt.Sprintf("value-%d", i)))
		}
		return Freeze([]Value{Int(0), Array(ObjectValue(o))})[1].Index(0)
	}
	v := freezeOne()
	want := v.JSON()
	var garbage [][]byte
	for round := 0; round < 4; round++ {
		runtime.GC()
		for i := 0; i < 2000; i++ {
			garbage = append(garbage, bytes.Repeat([]byte{0xA5}, 64))
		}
		garbage = garbage[:0]
	}
	if got := v.JSON(); got != want {
		t.Fatalf("after collections: %s, want %s", got, want)
	}
	for i := 0; i < 20; i++ {
		if got := v.Field(fmt.Sprintf("key-%02d", 19-i)).AsString(); got != fmt.Sprintf("value-%d", i) {
			t.Fatalf("Field(key-%02d) = %q", 19-i, got)
		}
	}
}

// FuzzFreeze decodes arbitrary bytes and freezes what decodes: DecodeBinary
// must not panic, hang or allocate without bound on any input (it presizes
// from counts bounded by the input and caps nesting), and a frozen value
// must encode, render and compare exactly as the decoded one, with every
// pointer inside its block, before and after collections.
func FuzzFreeze(f *testing.F) {
	for _, c := range goldenCorpus() {
		f.Add(c.v.AppendBinary(nil))
	}
	nine := NewObject()
	for i := 0; i < 9; i++ {
		nine.Set(fmt.Sprint("f", 8-i), Int(int64(i)))
	}
	deep := Int(1)
	for i := 0; i < 200; i++ {
		deep = Array(ObjectFromPairs("d", deep, "", String("")))
	}
	for _, v := range []Value{String(""), ArrayOf([]Value{}), ArrayOf(nil), ObjectValue(nine), deep} {
		f.Add(v.AppendBinary(nil))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{serArray, 1}, maxDecodeDepth+2))
	f.Fuzz(func(t *testing.T, data []byte) {
		var vs []Value
		for len(data) > 0 {
			v, rest, err := DecodeBinary(data)
			if err != nil {
				break
			}
			vs = append(vs, v)
			data = rest
		}
		checkFreeze(t, vs)
	})
}
