package variant

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"strings"
	"testing"

	"jsonpark/internal/testutil"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_values.txt from the current implementation")

const goldenPath = "testdata/golden_values.txt"

// goldenCorpus is the set of values whose every observable encoding is
// pinned by testdata/golden_values.txt. The file was written by this same
// test at the commit before the 24-byte layout landed, so a pass means the
// representation change moved no output byte: not the JSON a client reads,
// not the spill/partition codec, not a group key, not an ordering decision,
// not a bytes-scanned figure.
func goldenCorpus() []struct {
	name string
	v    Value
} {
	wide := NewObject() // crosses the linear-scan/map threshold
	for i := 0; i < 12; i++ {
		wide.Set(fmt.Sprintf("k%02d", 11-i), Int(int64(i)))
	}
	wide.Set("k05", String("overwritten"))
	return []struct {
		name string
		v    Value
	}{
		{"null", Null},
		{"zero-value", Value{}},
		{"false", Bool(false)},
		{"true", Bool(true)},
		{"int-zero", Int(0)},
		{"int-min", Int(math.MinInt64)},
		{"int-max", Int(math.MaxInt64)},
		{"int-2^53+1", Int(1<<53 + 1)},
		{"float-+0", Float(0)},
		{"float--0", Float(math.Copysign(0, -1))},
		{"float-nan", Float(math.NaN())},
		{"float-+inf", Float(math.Inf(1))},
		{"float--inf", Float(math.Inf(-1))},
		{"float-1", Float(1)},
		{"float-1e300", Float(1e300)},
		{"float-tiny", Float(5e-324)},
		{"string-empty", String("")},
		{"string-ascii", String("muon")},
		{"string-escapes", String("tab\there \"quoted\" \\ \u2028 <html>")},
		{"string-unicode", String("π⁺ → μ⁺ν 𝛾")},
		{"array-nil", ArrayOf(nil)},
		{"array-empty", ArrayOf([]Value{})},
		{"array-variadic-empty", Array()},
		{"array-scalars", Array(Int(1), Float(1), String("1"), Null, Bool(true))},
		{"array-nested", Array(Array(), Array(Array(Int(1))), ArrayOf(nil))},
		{"array-of-objects", Array(
			ObjectFromPairs("pt", Float(41.5), "eta", Float(-1.25), "charge", Int(-1)),
			ObjectFromPairs("pt", Float(17.0), "eta", Float(0.5), "charge", Int(1)),
			ObjectFromPairs(),
		)},
		{"object-empty", ObjectFromPairs()},
		{"object-nil", ObjectValue(nil)},
		{"object-order", ObjectFromPairs("b", Int(1), "a", Int(2))},
		{"object-order-swapped", ObjectFromPairs("a", Int(2), "b", Int(1))},
		{"object-unicode-keys", ObjectFromPairs("η", Float(0.1), "φ", Float(-3.1), "", String("empty key"), "a\"b", Null)},
		{"object-nested", ObjectFromPairs(
			"EVENT", Int(7),
			"MET", ObjectFromPairs("pt", Float(33.25), "phi", Float(1.5)),
			"Muon", Array(ObjectFromPairs("pt", Float(10), "mass", Float(0.105))),
			"Jet", ArrayOf([]Value{}),
		)},
		{"object-8-keys", ObjectFromPairs("a", Int(1), "b", Int(2), "c", Int(3), "d", Int(4), "e", Int(5), "f", Int(6), "g", Int(7), "h", Int(8))},
		{"object-9-keys", ObjectFromPairs("a", Int(1), "b", Int(2), "c", Int(3), "d", Int(4), "e", Int(5), "f", Int(6), "g", Int(7), "h", Int(8), "i", Int(9))},
		{"object-12-keys-overwrite", ObjectValue(wide)},
	}
}

// renderGolden prints one block per corpus value and then the full Compare
// matrix, one row per value.
func renderGolden() string {
	corpus := goldenCorpus()
	var b strings.Builder
	for _, c := range corpus {
		fmt.Fprintf(&b, "== %s\n", c.name)
		fmt.Fprintf(&b, "json      %s\n", c.v.JSON())
		fmt.Fprintf(&b, "binary    %x\n", c.v.AppendBinary(nil))
		fmt.Fprintf(&b, "groupkey  %x\n", c.v.AppendGroupKey(nil))
		fmt.Fprintf(&b, "hashkey   %q\n", c.v.HashKey())
		fmt.Fprintf(&b, "deepsize  %d\n", c.v.DeepSizeBytes())
		fmt.Fprintf(&b, "len       %d truthy %t\n", c.v.Len(), c.v.Truthy())
	}
	b.WriteString("== compare\n")
	for _, x := range corpus {
		for _, y := range corpus {
			switch c := Compare(x.v, y.v); {
			case c < 0:
				b.WriteByte('<')
			case c > 0:
				b.WriteByte('>')
			default:
				b.WriteByte('=')
			}
		}
		fmt.Fprintf(&b, " %s\n", x.name)
	}
	return b.String()
}

func TestGoldenEncodings(t *testing.T) {
	testutil.Golden(t, goldenPath, renderGolden(), *updateGolden)
}

// TestGoldenBinaryRoundTrip decodes every golden binary encoding and checks
// it re-encodes to the same bytes, so the presized decoder builds the same
// values the growing one did.
func TestGoldenBinaryRoundTrip(t *testing.T) {
	for _, c := range goldenCorpus() {
		enc := c.v.AppendBinary(nil)
		dec, rest, err := DecodeBinary(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: decode: %v (%d bytes left)", c.name, err, len(rest))
		}
		if again := dec.AppendBinary(nil); !bytes.Equal(again, enc) {
			t.Errorf("%s: re-encoded %x, want %x", c.name, again, enc)
		}
		if dec.JSON() != c.v.JSON() {
			t.Errorf("%s: decoded JSON %s, want %s", c.name, dec.JSON(), c.v.JSON())
		}
	}
}
