package storage

import (
	"fmt"
	"testing"

	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// sealOne builds a single sealed partition from rows of one column.
func sealOne(t *testing.T, typed bool, vals ...variant.Value) *Partition {
	t.Helper()
	tab, err := NewCatalog("", typed).CreateTable("t", []string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if err := tab.Append([]variant.Value{v}); err != nil {
			t.Fatal(err)
		}
	}
	parts := tab.Partitions()
	if len(parts) != 1 {
		t.Fatalf("got %d partitions, want 1", len(parts))
	}
	return parts[0]
}

func TestTypedEncodingDetection(t *testing.T) {
	cases := []struct {
		name string
		vals []variant.Value
		want vector.TypedKind
		none bool
	}{
		{name: "ints", vals: []variant.Value{variant.Int(1), variant.Int(2)}, want: vector.TypedInt64},
		{name: "ints with null", vals: []variant.Value{variant.Int(1), variant.Null, variant.Int(3)}, want: vector.TypedInt64},
		{name: "floats", vals: []variant.Value{variant.Float(1.5), variant.Float(2.5)}, want: vector.TypedFloat64},
		{name: "bools", vals: []variant.Value{variant.Bool(true), variant.Bool(false)}, want: vector.TypedBool},
		{name: "strings", vals: []variant.Value{variant.String("aaaa"), variant.String("bbbb")}, want: vector.TypedString},
		{name: "int float mix stays variant", vals: []variant.Value{variant.Int(1), variant.Float(1)}, none: true},
		{name: "int string mix stays variant", vals: []variant.Value{variant.Int(1), variant.String("x")}, none: true},
		{name: "all null stays variant", vals: []variant.Value{variant.Null, variant.Null}, none: true},
		{name: "objects stay variant", vals: []variant.Value{variant.ObjectFromPairs("a", variant.Int(1))}, none: true},
		{name: "arrays stay variant", vals: []variant.Value{variant.Array(variant.Int(1))}, none: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := sealOne(t, true, tc.vals...)
			typed := p.Column(0).Typed()
			if tc.none {
				if typed != nil {
					t.Fatalf("expected variant fallback, got typed kind %v", typed.Kind())
				}
				return
			}
			if typed == nil {
				t.Fatal("expected a typed chunk, got variant fallback")
			}
			if typed.Kind() != tc.want || typed.Len() != len(tc.vals) {
				t.Fatalf("typed kind=%v len=%d, want kind=%v len=%d", typed.Kind(), typed.Len(), tc.want, len(tc.vals))
			}
			// Materialization round-trips bit-exactly.
			got := p.Column(0).Values()
			for i := range tc.vals {
				if !variant.BinaryEqual(got[i], tc.vals[i]) {
					t.Errorf("row %d: materialized %s, want %s", i, got[i].JSON(), tc.vals[i].JSON())
				}
			}
		})
	}
}

func TestTypedShreddingDisabled(t *testing.T) {
	p := sealOne(t, false, variant.Int(1), variant.Int(2))
	if p.Column(0).Typed() != nil {
		t.Fatal("typed encoding built while disabled")
	}
	if st := p.Column(0).PathStat(""); st == nil || st.Min.AsInt() != 1 || st.Max.AsInt() != 2 {
		t.Fatalf("variant-mode zone map wrong: %+v", st)
	}
}

func TestCatalogTypedShreddingKnob(t *testing.T) {
	tab, err := NewCatalog("", false).CreateTable("t", []string{"c"})
	if err != nil {
		t.Fatal(err)
	}
	tab.Append([]variant.Value{variant.Int(1)})
	if tab.Partitions()[0].Column(0).Typed() != nil {
		t.Fatal("catalog typed mode did not propagate to the table")
	}
}

func TestTypedDictionaryEncoding(t *testing.T) {
	var vals []variant.Value
	for i := 0; i < 100; i++ {
		vals = append(vals, variant.String(fmt.Sprintf("tag%d", i%4)))
	}
	p := sealOne(t, true, vals...)
	typed := p.Column(0).Typed()
	if typed == nil || typed.Codes() == nil {
		t.Fatal("low-cardinality strings should dictionary-encode")
	}
	if len(typed.Dict()) != 4 {
		t.Fatalf("dict size = %d, want 4", len(typed.Dict()))
	}
	for i := range vals {
		if typed.StringAt(i) != vals[i].AsString() {
			t.Fatalf("row %d: %q != %q", i, typed.StringAt(i), vals[i].AsString())
		}
	}

	// High-cardinality strings stay plain.
	var uniq []variant.Value
	for i := 0; i < 40; i++ {
		uniq = append(uniq, variant.String(fmt.Sprintf("id-%04d", i)))
	}
	p = sealOne(t, true, uniq...)
	typed = p.Column(0).Typed()
	if typed == nil || typed.Strs() == nil {
		t.Fatal("unique strings should use the plain encoding")
	}
}

func TestTypedZoneMapsMatchVariantShred(t *testing.T) {
	mk := func() []variant.Value {
		var vals []variant.Value
		for i := 0; i < 50; i++ {
			if i%7 == 0 {
				vals = append(vals, variant.Null)
			} else {
				vals = append(vals, variant.Int(int64(i*3-40)))
			}
		}
		return vals
	}
	typedSt := sealOne(t, true, mk()...).Column(0).PathStat("")
	varSt := sealOne(t, false, mk()...).Column(0).PathStat("")
	if typedSt == nil || varSt == nil {
		t.Fatal("missing root stats")
	}
	if !variant.BinaryEqual(typedSt.Min, varSt.Min) || !variant.BinaryEqual(typedSt.Max, varSt.Max) ||
		typedSt.NonNull != varSt.NonNull || typedSt.NullCount != varSt.NullCount || typedSt.Bytes != varSt.Bytes {
		t.Fatalf("typed stats %+v != variant stats %+v", typedSt, varSt)
	}
}

func TestTypedNullBitmap(t *testing.T) {
	p := sealOne(t, true, variant.Int(1), variant.Null, variant.Int(3), variant.Null)
	typed := p.Column(0).Typed()
	if typed == nil || !typed.HasNulls() {
		t.Fatal("expected a typed chunk with nulls")
	}
	wantNull := []bool{false, true, false, true}
	for i, w := range wantNull {
		if typed.Null(i) != w {
			t.Errorf("Null(%d) = %v, want %v", i, typed.Null(i), w)
		}
	}
	st := p.Column(0).PathStat("")
	if st.NullCount != 2 || st.NonNull != 2 {
		t.Fatalf("stats = %+v", st)
	}
}
