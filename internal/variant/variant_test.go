package variant

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Null, KindNull},
		{Bool(true), KindBool},
		{Int(7), KindInt},
		{Float(2.5), KindFloat},
		{String("x"), KindString},
		{Array(Int(1)), KindArray},
		{ObjectFromPairs("a", Int(1)), KindObject},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("Kind(%v) = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestFieldAndIndexMissAreNull(t *testing.T) {
	o := ObjectFromPairs("a", Int(1))
	if got := o.Field("b"); !got.IsNull() {
		t.Errorf("missing field = %v, want null", got)
	}
	if got := Int(3).Field("a"); !got.IsNull() {
		t.Errorf("field of scalar = %v, want null", got)
	}
	a := Array(Int(1), Int(2))
	if got := a.Index(5); !got.IsNull() {
		t.Errorf("out of range index = %v, want null", got)
	}
	if got := a.Index(-1); !got.IsNull() {
		t.Errorf("negative index = %v, want null", got)
	}
	if got := a.Index(1); got.AsInt() != 2 {
		t.Errorf("a[1] = %v, want 2", got)
	}
}

func TestObjectSetReplaces(t *testing.T) {
	o := NewObject()
	o.Set("k", Int(1))
	o.Set("k", Int(2))
	if o.Len() != 1 {
		t.Fatalf("Len = %d, want 1", o.Len())
	}
	v, ok := o.Get("k")
	if !ok || v.AsInt() != 2 {
		t.Fatalf("Get(k) = %v,%v, want 2,true", v, ok)
	}
}

func TestCompareNumbersAcrossKinds(t *testing.T) {
	if Compare(Int(2), Float(2.0)) != 0 {
		t.Error("2 should equal 2.0")
	}
	if Compare(Int(2), Float(2.5)) >= 0 {
		t.Error("2 < 2.5")
	}
	if Compare(Float(3.1), Int(3)) <= 0 {
		t.Error("3.1 > 3")
	}
}

func TestCompareKindOrder(t *testing.T) {
	order := []Value{Null, Bool(false), Bool(true), Int(-5), String(""), Array(), ObjectValue(NewObject())}
	for i := 0; i < len(order)-1; i++ {
		if Compare(order[i], order[i+1]) >= 0 {
			t.Errorf("expected %v < %v", order[i], order[i+1])
		}
	}
}

func TestCompareArraysDeep(t *testing.T) {
	a := Array(Int(1), Int(2))
	b := Array(Int(1), Int(3))
	c := Array(Int(1), Int(2), Int(0))
	if Compare(a, b) >= 0 {
		t.Error("[1,2] < [1,3]")
	}
	if Compare(a, c) >= 0 {
		t.Error("[1,2] < [1,2,0]")
	}
	if Compare(a, Array(Int(1), Int(2))) != 0 {
		t.Error("equal arrays should compare equal")
	}
}

func TestCompareObjects(t *testing.T) {
	a := ObjectFromPairs("x", Int(1), "y", Int(2))
	b := ObjectFromPairs("y", Int(2), "x", Int(1)) // different insertion order
	if Compare(a, b) != 0 {
		t.Error("objects with same fields should be equal regardless of order")
	}
	c := ObjectFromPairs("x", Int(1), "y", Int(3))
	if Compare(a, c) >= 0 {
		t.Error("{x:1,y:2} < {x:1,y:3}")
	}
}

func TestHashKeyNumericUnification(t *testing.T) {
	if Int(1).HashKey() != Float(1.0).HashKey() {
		t.Error("1 and 1.0 should hash identically for grouping")
	}
	if Int(1).HashKey() == Int(2).HashKey() {
		t.Error("distinct ints must hash differently")
	}
	if String("1").HashKey() == Int(1).HashKey() {
		t.Error("string \"1\" must not collide with number 1")
	}
}

func TestHashKeyInjectiveOnStrings(t *testing.T) {
	// The length prefix prevents concatenation ambiguity inside arrays.
	a := Array(String("ab"), String("c"))
	b := Array(String("a"), String("bc"))
	if a.HashKey() == b.HashKey() {
		t.Error("hash keys must distinguish [ab,c] from [a,bc]")
	}
}

func TestTruthy(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
	}{
		{Null, false},
		{Bool(false), false},
		{Bool(true), true},
		{Int(0), false},
		{Int(3), true},
		{Float(0), false},
		{Float(math.NaN()), false},
		{String(""), false},
		{String("x"), true},
		{Array(), true},
	}
	for _, c := range cases {
		if c.v.Truthy() != c.want {
			t.Errorf("Truthy(%v) = %v, want %v", c.v, c.v.Truthy(), c.want)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	src := `{"EVENT":263142897,"HLT":{"IsoMu24":false},"JET":[{"pt":12.5,"eta":-1.25},{"pt":40.0,"eta":0.5}],"empty":[],"s":"hi\n"}`
	v, err := ParseJSON([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if v.Field("EVENT").AsInt() != 263142897 {
		t.Errorf("EVENT = %v", v.Field("EVENT"))
	}
	if v.Field("HLT").Field("IsoMu24").AsBool() {
		t.Error("IsoMu24 should be false")
	}
	if got := v.Field("JET").Index(0).Field("pt").AsFloat(); got != 12.5 {
		t.Errorf("JET[0].pt = %v", got)
	}
	round, err := ParseJSON([]byte(v.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(v, round) {
		t.Errorf("round trip mismatch: %s vs %s", v.JSON(), round.JSON())
	}
}

func TestJSONIntVsFloatDistinct(t *testing.T) {
	if !strings.Contains(Float(40).JSON(), ".") {
		t.Errorf("integral doubles must render with a fractional marker, got %s", Float(40).JSON())
	}
	if Int(40).JSON() != "40" {
		t.Errorf("int renders as %s", Int(40).JSON())
	}
	if Float(math.NaN()).JSON() != "null" {
		t.Error("NaN must serialize as null")
	}
}

func TestArithmetic(t *testing.T) {
	mustV := func(v Value, err error) Value {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if got := mustV(Add(Int(2), Int(3))); got.Kind() != KindInt || got.AsInt() != 5 {
		t.Errorf("2+3 = %v", got)
	}
	if got := mustV(Add(Int(2), Float(0.5))); got.Kind() != KindFloat || got.AsFloat() != 2.5 {
		t.Errorf("2+0.5 = %v", got)
	}
	if got := mustV(Mul(Int(4), Int(5))); got.AsInt() != 20 {
		t.Errorf("4*5 = %v", got)
	}
	if got := mustV(Div(Int(7), Int(2))); got.AsFloat() != 3.5 {
		t.Errorf("7 div 2 = %v", got)
	}
	if got := mustV(IDiv(Int(7), Int(2))); got.AsInt() != 3 {
		t.Errorf("7 idiv 2 = %v", got)
	}
	if got := mustV(Mod(Int(7), Int(3))); got.AsInt() != 1 {
		t.Errorf("7 mod 3 = %v", got)
	}
	if got := mustV(Neg(Float(2.5))); got.AsFloat() != -2.5 {
		t.Errorf("-2.5 = %v", got)
	}
}

func TestArithmeticNullPropagation(t *testing.T) {
	for _, op := range []func(a, b Value) (Value, error){Add, Sub, Mul, Div, Mod, IDiv} {
		v, err := op(Null, Int(1))
		if err != nil || !v.IsNull() {
			t.Errorf("op(null,1) = %v, %v; want null, nil", v, err)
		}
		v, err = op(Int(1), Null)
		if err != nil || !v.IsNull() {
			t.Errorf("op(1,null) = %v, %v; want null, nil", v, err)
		}
	}
}

func TestArithmeticTypeErrors(t *testing.T) {
	if _, err := Add(String("a"), Int(1)); err == nil {
		t.Error("adding string should error")
	}
	if _, err := Div(Int(1), Int(0)); err == nil {
		t.Error("integer division by zero should error")
	}
	if _, err := Mod(Int(1), Int(0)); err == nil {
		t.Error("mod by zero should error")
	}
}

func TestCoercions(t *testing.T) {
	f, err := ToFloat(String("2.5"))
	if err != nil || f != 2.5 {
		t.Errorf("ToFloat(\"2.5\") = %v, %v", f, err)
	}
	i, err := ToInt(Float(3.9))
	if err != nil || i != 3 {
		t.Errorf("ToInt(3.9) = %v, %v", i, err)
	}
	if _, err := ToFloat(Array()); err == nil {
		t.Error("ToFloat(array) should error")
	}
}

// A double with no int64 value — NaN, an infinity, or one outside
// [-2^63, 2^63) — does not coerce to an integer; int64 conversion would turn
// each into math.MinInt64. The range's own ends still coerce.
func TestToIntRejectsUnrepresentableDoubles(t *testing.T) {
	for _, v := range []Value{
		Float(math.NaN()), Float(math.Inf(1)), Float(math.Inf(-1)),
		Float(1e300), Float(-1e19), Float(9223372036854775808), String("1e300"),
	} {
		if i, err := ToInt(v); err == nil || !strings.Contains(err.Error(), "cannot coerce") {
			t.Errorf("ToInt(%v) = %d, %v; want a coercion error", v, i, err)
		}
	}
	if i, err := ToInt(Float(-9223372036854775808)); err != nil || i != math.MinInt64 {
		t.Errorf("ToInt(-2^63) = %d, %v", i, err)
	}
	if i, err := ToInt(Float(9.2233720368547748e18)); err != nil || i != 9223372036854774784 {
		t.Errorf("ToInt(largest double below 2^63) = %d, %v", i, err)
	}
	for _, q := range [][2]Value{{Float(1e300), Float(1e-300)}, {Float(math.Inf(1)), Int(2)}, {Float(math.NaN()), Int(1)}} {
		if v, err := IDiv(q[0], q[1]); err == nil || !strings.Contains(err.Error(), "cannot coerce DOUBLE to NUMBER") {
			t.Errorf("IDiv(%v, %v) = %v, %v; want a coercion error", q[0], q[1], v, err)
		}
	}
}

// Property: Compare is a total order — antisymmetric and reflexive — over
// randomly generated scalar values.
func TestCompareAntisymmetricProperty(t *testing.T) {
	f := func(a, b int64, fa, fb float64, sa, sb string) bool {
		vals := []Value{Int(a), Int(b), Float(fa), Float(fb), String(sa), String(sb), Null, Bool(a%2 == 0)}
		for _, x := range vals {
			for _, y := range vals {
				if Compare(x, y) != -Compare(y, x) {
					// NaN floats break ordering; exclude them.
					if x.Kind() == KindFloat && math.IsNaN(x.AsFloat()) {
						continue
					}
					if y.Kind() == KindFloat && math.IsNaN(y.AsFloat()) {
						continue
					}
					return false
				}
				if Equal(x, y) != (Compare(x, y) == 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: JSON round trip preserves equality for generated nested values.
func TestJSONRoundTripProperty(t *testing.T) {
	f := func(i int64, fl float64, s string, bs []byte) bool {
		if math.IsNaN(fl) || math.IsInf(fl, 0) {
			fl = 0.5
		}
		inner := Array(Int(i), Float(fl), String(s), Null, Bool(i > 0))
		v := ObjectFromPairs("a", inner, "b", ObjectFromPairs("c", String(string(bs))), "n", Int(i))
		round, err := ParseJSON([]byte(v.JSON()))
		if err != nil {
			// non-UTF8 byte strings may not round trip; encoding/json replaces
			// invalid bytes, so only require success for valid UTF-8.
			return true
		}
		if strings.ToValidUTF8(s, "�") != s || strings.ToValidUTF8(string(bs), "�") != string(bs) {
			return true
		}
		return Equal(v, round)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeepSizeBytes(t *testing.T) {
	if Int(1).DeepSizeBytes() != 8 {
		t.Error("int size")
	}
	v := Array(Int(1), Int(2))
	if v.DeepSizeBytes() != 8+16 {
		t.Errorf("array size = %d", v.DeepSizeBytes())
	}
	if String("abcd").DeepSizeBytes() != 12 {
		t.Errorf("string size = %d", String("abcd").DeepSizeBytes())
	}
}

func TestFromAnyGoTypes(t *testing.T) {
	v, err := FromAny(map[string]any{"b": int64(2), "a": 1.5, "c": []any{nil, true}})
	if err != nil {
		t.Fatal(err)
	}
	// Map keys sort deterministically.
	if got := v.AsObject().Keys()[0]; got != "a" {
		t.Errorf("first key = %q", got)
	}
	if v.Field("b").Kind() != KindInt || v.Field("a").Kind() != KindFloat {
		t.Errorf("kinds = %v %v", v.Field("b").Kind(), v.Field("a").Kind())
	}
	if !v.Field("c").Index(0).IsNull() || !v.Field("c").Index(1).AsBool() {
		t.Errorf("array = %v", v.Field("c"))
	}
	if _, err := FromAny(struct{}{}); err == nil {
		t.Error("unsupported type should error")
	}
}

// TestParseJSONErrors: truncated and empty input fail, and so does anything
// but whitespace after the first value — ParseJSON once dropped such a tail
// without a word, so a JSON-lines row holding two documents lost data.
func TestParseJSONErrors(t *testing.T) {
	for _, in := range append([]string{`{"a":`, ``}, trailingInputs...) {
		if v, err := ParseJSON([]byte(in)); err == nil {
			t.Errorf("ParseJSON(%q) = %s, want an error", in, v.JSON())
		}
	}
	for in, want := range map[string]string{
		"{\"a\":1}\n":  `{"a":1}`,
		" 1 ":          `1`,
		"\t[1,2]\r\n ": `[1,2]`,
	} {
		v, err := ParseJSON([]byte(in))
		if err != nil {
			t.Errorf("ParseJSON(%q): %v", in, err)
		} else if v.JSON() != want {
			t.Errorf("ParseJSON(%q) = %s, want %s", in, v.JSON(), want)
		}
	}
}

// TestCompareOrdersNaNLast: Compare is a total order on numbers — NaN equals
// NaN (any payload) and sorts above +Inf, below every string — so sorts,
// MIN/MAX and the join's NaN key class agree.
func TestCompareOrdersNaNLast(t *testing.T) {
	nan, other := Float(math.NaN()), Float(math.Float64frombits(math.Float64bits(math.NaN())^1))
	for _, c := range []struct {
		a, b Value
		want int
	}{
		{nan, other, 0},
		{nan, Float(math.Inf(1)), 1},
		{Int(math.MaxInt64), nan, -1},
		{nan, Float(math.Inf(-1)), 1},
		{nan, String(""), -1},
		{Float(math.Copysign(0, -1)), Int(0), 0},
	} {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Compare(c.b, c.a); got != -c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}
