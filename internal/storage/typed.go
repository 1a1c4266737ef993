// Typed shredding (§II-B): at partition seal time each column chunk whose
// values are uniformly one scalar kind is re-encoded as a flat typed array —
// int64/float64/string/bool plus a null bitmap, with dictionary encoding for
// low-cardinality strings. Typed chunks hand the executor zero-copy
// vector.TypedCol views so expression kernels run monomorphic loops, and
// their zone maps fall out of one pass over the typed array. Columns mixing
// kinds (or holding arrays/objects at the root) keep the variant array, and
// every nested path keeps its shredded statistics either way.
package storage

import (
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// dictMaxCard caps the dictionary size of a dictionary-encoded string chunk.
// Beyond it (or when the dictionary wouldn't actually dedup anything) the
// chunk stores plain per-row strings.
const dictMaxCard = 256

// buildTyped returns the typed encoding of a sealed chunk's values, or nil
// when the column is not uniformly one scalar kind (the variant fallback).
// Int and Float never mix — 1 and 1.0 render differently, so collapsing them
// into one array would not round-trip bit-exactly.
func buildTyped(values []variant.Value) *vector.TypedCol {
	kind := variant.KindNull
	nullCount := 0
	for _, v := range values {
		switch v.Kind() {
		case variant.KindNull:
			nullCount++
		case variant.KindInt, variant.KindFloat, variant.KindString, variant.KindBool:
			if kind == variant.KindNull {
				kind = v.Kind()
			} else if kind != v.Kind() {
				return nil
			}
		default:
			return nil
		}
	}
	if kind == variant.KindNull {
		return nil // empty or all-NULL: nothing to type
	}
	var nulls []uint64
	if nullCount > 0 {
		nulls = make([]uint64, vector.NullBitmapWords(len(values)))
		for i, v := range values {
			if v.IsNull() {
				vector.SetNullBit(nulls, i)
			}
		}
	}
	switch kind {
	case variant.KindInt:
		vals := make([]int64, len(values))
		for i, v := range values {
			if !v.IsNull() {
				vals[i] = v.AsInt()
			}
		}
		return vector.NewInt64Col(vals, nulls)
	case variant.KindFloat:
		vals := make([]float64, len(values))
		for i, v := range values {
			if !v.IsNull() {
				vals[i] = v.AsFloat()
			}
		}
		return vector.NewFloat64Col(vals, nulls)
	case variant.KindBool:
		vals := make([]bool, len(values))
		for i, v := range values {
			if !v.IsNull() {
				vals[i] = v.AsBool()
			}
		}
		return vector.NewBoolCol(vals, nulls)
	case variant.KindString:
		return buildStringTyped(values, nulls, nullCount)
	}
	return nil
}

// buildStringTyped picks between dictionary and plain string encoding:
// dictionary when the distinct count stays under dictMaxCard and actually
// deduplicates (every code saves a string header).
func buildStringTyped(values []variant.Value, nulls []uint64, nullCount int) *vector.TypedCol {
	codes := make([]uint32, len(values))
	index := make(map[string]uint32)
	var dict []string
	dictOK := true
	for i, v := range values {
		if v.IsNull() {
			continue
		}
		s := v.AsString()
		code, seen := index[s]
		if !seen {
			if len(dict) >= dictMaxCard {
				dictOK = false
				break
			}
			code = uint32(len(dict))
			index[s] = code
			dict = append(dict, s)
		}
		codes[i] = code
	}
	nonNull := len(values) - nullCount
	if dictOK && len(dict)*2 <= nonNull {
		return vector.NewDictCol(dict, codes, nulls)
	}
	vals := make([]string, len(values))
	for i, v := range values {
		if !v.IsNull() {
			vals[i] = v.AsString()
		}
	}
	return vector.NewStringCol(vals, nulls)
}

// rootStatsFromTyped fills the chunk's "" path statistics from its typed
// array — one pass, no variant boxing — replicating exactly what shred would
// record for a uniformly scalar column: per-value byte volume, null count,
// and min/max under variant.Compare's ordering (floats compare through
// variant.CompareFloat, so a NaN is the max, and the min only when every
// value is NaN).
func (cc *ColumnChunk) rootStatsFromTyped(tc *vector.TypedCol) {
	st := cc.stat("")
	n := tc.Len()
	switch tc.Kind() {
	case vector.TypedInt64:
		var min, max int64
		for i, x := range tc.Ints() {
			if tc.Null(i) {
				st.Bytes++
				st.NullCount++
				continue
			}
			st.Bytes += 8
			if st.NonNull == 0 {
				min, max = x, x
			} else {
				if x < min {
					min = x
				}
				if x > max {
					max = x
				}
			}
			st.NonNull++
		}
		if st.NonNull > 0 {
			st.Min, st.Max = variant.Int(min), variant.Int(max)
		}
	case vector.TypedFloat64:
		var min, max float64
		for i, x := range tc.Floats() {
			if tc.Null(i) {
				st.Bytes++
				st.NullCount++
				continue
			}
			st.Bytes += 8
			if st.NonNull == 0 {
				min, max = x, x
			} else {
				if variant.CompareFloat(x, min) < 0 {
					min = x
				}
				if variant.CompareFloat(x, max) > 0 {
					max = x
				}
			}
			st.NonNull++
		}
		if st.NonNull > 0 {
			st.Min, st.Max = variant.Float(min), variant.Float(max)
		}
	case vector.TypedString:
		var min, max string
		for i := 0; i < n; i++ {
			if tc.Null(i) {
				st.Bytes++
				st.NullCount++
				continue
			}
			s := tc.StringAt(i)
			st.Bytes += int64(8 + len(s))
			if st.NonNull == 0 {
				min, max = s, s
			} else {
				if s < min {
					min = s
				}
				if s > max {
					max = s
				}
			}
			st.NonNull++
		}
		if st.NonNull > 0 {
			st.Min, st.Max = variant.String(min), variant.String(max)
		}
	case vector.TypedBool:
		var min, max bool
		for i, x := range tc.Bools() {
			if tc.Null(i) {
				st.Bytes++
				st.NullCount++
				continue
			}
			st.Bytes++
			if st.NonNull == 0 {
				min, max = x, x
			} else {
				if !x {
					min = false
				}
				if x {
					max = true
				}
			}
			st.NonNull++
		}
		if st.NonNull > 0 {
			st.Min, st.Max = variant.Bool(min), variant.Bool(max)
		}
	}
}
