package variant

import (
	"bytes"
	"encoding/json"
	"testing"
)

// trailingInputs hold a valid first JSON value followed by something other
// than whitespace: a second document, a garbled tail, a stray bracket.
var trailingInputs = []string{`{"a":1} {"b":2}`, `{"a":1}xyz`, `[1,2]]`}

// FuzzParseJSON: no input panics or hangs ParseJSON; what parses renders
// through JSON() to text that parses back to a binary-equal value; and input
// with anything but whitespace after its first value is rejected.
func FuzzParseJSON(f *testing.F) {
	for _, c := range goldenCorpus() {
		f.Add([]byte(c.v.JSON()))
	}
	for _, in := range trailingInputs {
		f.Add([]byte(in))
	}
	f.Add([]byte("{\"a\":1}\n"))
	f.Add([]byte(" 1 "))
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := ParseJSON(data)
		if trailing := afterFirstValue(data); len(trailing) > 0 && err == nil {
			t.Fatalf("ParseJSON(%q) accepted trailing %q", data, trailing)
		}
		if err != nil {
			return
		}
		text := v.JSON()
		back, err := ParseJSON([]byte(text))
		if err != nil {
			t.Fatalf("ParseJSON(%q) rendered %q, which does not parse: %v", data, text, err)
		}
		if !BinaryEqual(v, back) {
			t.Fatalf("ParseJSON(%q) rendered %q, which parses back to %s", data, text, back.JSON())
		}
	})
}

// afterFirstValue returns what follows data's first JSON value once
// whitespace is trimmed, nil when data does not start with a value.
func afterFirstValue(data []byte) []byte {
	dec := json.NewDecoder(bytes.NewReader(data))
	var raw json.RawMessage
	if dec.Decode(&raw) != nil {
		return nil
	}
	return bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")
}

// FuzzAppendJSONString: AppendJSONString writes exactly the bytes
// encoding/json.Marshal writes for the same string — every escape class,
// invalid UTF-8 and the JavaScript line separators included — and a string
// value's JSON() is that literal too.
func FuzzAppendJSONString(f *testing.F) {
	for b := 0; b < 256; b++ {
		f.Add(string([]byte{'a', byte(b), 'z'}))
	}
	for _, s := range []string{
		"", `say "hi"\`, "<a href='x'>&amp;</a>", "line\u2028para\u2029end",
		"\x00\x01\x1f\x7f", "\b\f\n\r\t", "é😀中", "\xff\xfe", "\xe2\x80", "a\xc3",
		"\xed\xa0\x80", // an encoded surrogate half is invalid UTF-8
		`{"nested": ["json", 1]}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString([]byte("prefix"), s); string(got) != "prefix"+string(want) {
			t.Fatalf("AppendJSONString(%q) = %s, want prefix%s", s, got, want)
		}
		if got := String(s).JSON(); got != string(want) {
			t.Fatalf("String(%q).JSON() = %s, want %s", s, got, want)
		}
	})
}
