package variant

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"
)

// ParseJSON decodes one JSON document into a Value. Numbers without a
// fractional part or exponent decode as KindInt when they fit in int64,
// otherwise as KindFloat. Whitespace may follow the document; anything else
// — a second document, a garbled tail — is an error.
func ParseJSON(data []byte) (Value, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var raw any
	if err := dec.Decode(&raw); err != nil {
		return Null, fmt.Errorf("variant: parse json: %w", err)
	}
	end := dec.InputOffset()
	if err := dec.Decode(new(any)); err != io.EOF {
		return Null, fmt.Errorf("variant: parse json: data after the value that ends at offset %d", end)
	}
	return FromAny(raw)
}

// MustParseJSON is ParseJSON that panics on error; intended for tests and
// literals in examples.
func MustParseJSON(s string) Value {
	v, err := ParseJSON([]byte(s))
	if err != nil {
		panic(err)
	}
	return v
}

// FromAny converts a decoded encoding/json value (or plain Go scalars,
// slices and maps) into a Value. Map keys are emitted in sorted order so the
// conversion is deterministic.
func FromAny(raw any) (Value, error) {
	switch x := raw.(type) {
	case nil:
		return Null, nil
	case bool:
		return Bool(x), nil
	case string:
		return String(x), nil
	case json.Number:
		if i, err := strconv.ParseInt(string(x), 10, 64); err == nil {
			return Int(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return Null, fmt.Errorf("variant: bad number %q: %w", x, err)
		}
		return Float(f), nil
	case int:
		return Int(int64(x)), nil
	case int64:
		return Int(x), nil
	case float64:
		return Float(x), nil
	case []any:
		arr := make([]Value, len(x))
		for i, e := range x {
			v, err := FromAny(e)
			if err != nil {
				return Null, err
			}
			arr[i] = v
		}
		return ArrayOf(arr), nil
	case map[string]any:
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		o := NewObjectSized(len(keys))
		for _, k := range keys {
			v, err := FromAny(x[k])
			if err != nil {
				return Null, err
			}
			o.Set(k, v)
		}
		return ObjectValue(o), nil
	case Value:
		return x, nil
	}
	return Null, fmt.Errorf("variant: unsupported Go type %T", raw)
}

// JSON renders v as compact JSON. NaN and infinities render as null, which
// matches how engines serialize non-finite doubles into JSON output.
func (v Value) JSON() string { return string(v.AppendJSON(nil)) }

// AppendJSON appends v's JSON rendering (the bytes JSON returns) to dst.
// Strings and keys are escaped as encoding/json escapes them, HTML
// characters and U+2028/U+2029 included, so the output is already in the
// form encoding/json would compact it to.
func (v Value) AppendJSON(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, "null"...)
	case KindBool:
		if v.num != 0 {
			return append(dst, "true"...)
		}
		return append(dst, "false"...)
	case KindInt:
		return strconv.AppendInt(dst, int64(v.num), 10)
	case KindFloat:
		f := math.Float64frombits(v.num)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return append(dst, "null"...)
		}
		start := len(dst)
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
		if !bytes.ContainsAny(dst[start:], ".eE") {
			dst = append(dst, ".0"...) // keep doubles distinguishable from ints
		}
		return dst
	case KindString:
		return AppendJSONString(dst, v.str())
	case KindArray:
		dst = append(dst, '[')
		for i, e := range v.elems() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = e.AppendJSON(dst)
		}
		return append(dst, ']')
	case KindObject:
		dst = append(dst, '{')
		o := v.object()
		for i, k := range o.Keys() {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendJSONString(dst, k)
			dst = append(dst, ':')
			dst = o.ValueAt(i).AppendJSON(dst)
		}
		return append(dst, '}')
	}
	return dst
}

// jsonSafe marks the ASCII bytes a JSON string literal holds unescaped.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()

// AppendJSONString appends s as a JSON string literal, escaped exactly as
// encoding/json.Marshal escapes it: quote, backslash and the control
// characters (\b \f \n \r \t by name, the rest as \u00XX), the HTML
// characters < > & as \u003c \u003e \u0026, U+2028 and U+2029 as \u2028
// and \u2029, and every invalid UTF-8 byte as \ufffd.
func AppendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// String implements fmt.Stringer with the JSON rendering.
func (v Value) String() string { return v.JSON() }
