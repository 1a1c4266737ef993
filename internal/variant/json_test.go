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
