// Package engine implements the embedded columnar SQL engine standing in
// for Snowflake: it parses SQL text (via sqlparse), builds and optimizes a
// logical plan (predicate pushdown, projection pruning, equi-join detection,
// struct-field folding, zone-map partition pruning), and executes it with
// row-iterator operators over micro-partitioned storage. Compilation and
// execution times, bytes scanned and partition-pruning counts are reported
// per query (§V-C/D/E of the paper).
package engine

import (
	"fmt"
	"math"
	"strings"

	"jsonpark/internal/variant"
)

// scalarFunc evaluates one scalar SQL function over already-evaluated
// arguments. NULL handling is function-specific; most propagate NULL.
type scalarFunc func(args []variant.Value) (variant.Value, error)

var scalarFuncs = map[string]scalarFunc{}

// typedFunc is a scalar function's typed kernel (exprt.go), which runs in
// its place when the operands are typed in a batch: math over one or two
// doubles, FLOOR-style rounding, IFF, or GET by index. A call to a function
// that has one compiles with the kernel's index + 1 in exprNode.kern.
type typedFunc struct {
	kind typedFuncKind
	f1   func(float64) float64
	f2   func(x, y float64) float64
}

type typedFuncKind uint8

const (
	tfMath1 typedFuncKind = iota
	tfMath2
	tfRound
	tfIff
	tfGet
)

var (
	typedFuncs   []typedFunc
	typedFuncIdx = map[string]uint8{}
)

func regTyped(name string, tf typedFunc) {
	typedFuncs = append(typedFuncs, tf)
	typedFuncIdx[name] = uint8(len(typedFuncs))
}

func init() {
	reg := func(name string, fn scalarFunc) { scalarFuncs[name] = fn }

	reg("GET", fnGet)
	reg("GET_PATH", fnGetPath)
	reg("OBJECT_CONSTRUCT", fnObjectConstruct)
	reg("ARRAY_CONSTRUCT", func(args []variant.Value) (variant.Value, error) {
		return variant.ArrayOf(append([]variant.Value(nil), args...)), nil
	})
	reg("ARRAY_SIZE", func(args []variant.Value) (variant.Value, error) {
		if err := arity("ARRAY_SIZE", args, 1); err != nil {
			return variant.Null, err
		}
		if args[0].Kind() != variant.KindArray {
			return variant.Null, nil
		}
		return variant.Int(int64(args[0].Len())), nil
	})
	reg("ARRAY_CAT", func(args []variant.Value) (variant.Value, error) {
		if err := arity("ARRAY_CAT", args, 2); err != nil {
			return variant.Null, err
		}
		if args[0].Kind() != variant.KindArray || args[1].Kind() != variant.KindArray {
			return variant.Null, nil
		}
		out := make([]variant.Value, 0, args[0].Len()+args[1].Len())
		out = append(out, args[0].AsArray()...)
		out = append(out, args[1].AsArray()...)
		return variant.ArrayOf(out), nil
	})
	reg("ARRAY_COMPACT", func(args []variant.Value) (variant.Value, error) {
		if err := arity("ARRAY_COMPACT", args, 1); err != nil {
			return variant.Null, err
		}
		if args[0].Kind() != variant.KindArray {
			return variant.Null, nil
		}
		var out []variant.Value
		for _, e := range args[0].AsArray() {
			if !e.IsNull() {
				out = append(out, e)
			}
		}
		return variant.ArrayOf(out), nil
	})
	reg("ARRAY_RANGE", func(args []variant.Value) (variant.Value, error) {
		// ARRAY_RANGE(lo, hi) returns [lo, hi) of integers, mirroring
		// Snowflake's ARRAY_GENERATE_RANGE.
		if err := arity("ARRAY_RANGE", args, 2); err != nil {
			return variant.Null, err
		}
		lo, n, null, err := rangeBounds(args[0], args[1])
		if null || err != nil {
			return variant.Null, err
		}
		out := make([]variant.Value, n)
		for i := range out {
			out[i] = variant.Int(lo + int64(i))
		}
		return variant.ArrayOf(out), nil
	})
	reg("ARRAY_SLICE", func(args []variant.Value) (variant.Value, error) {
		if err := arity("ARRAY_SLICE", args, 3); err != nil {
			return variant.Null, err
		}
		if args[0].Kind() != variant.KindArray {
			return variant.Null, nil
		}
		from, err := variant.ToInt(args[1])
		if err != nil {
			return variant.Null, err
		}
		to, err := variant.ToInt(args[2])
		if err != nil {
			return variant.Null, err
		}
		arr := args[0].AsArray()
		if from < 0 {
			from = 0
		}
		if to > int64(len(arr)) {
			to = int64(len(arr))
		}
		if from >= to {
			return variant.ArrayOf(nil), nil
		}
		return variant.ArrayOf(arr[from:to]), nil
	})

	// The math functions, with their typed kernels (exprt.go).
	math1 := func(name string, f func(float64) float64) {
		reg(name, numeric1(name, f))
		regTyped(name, typedFunc{kind: tfMath1, f1: f})
	}
	math2 := func(name string, f func(x, y float64) float64) {
		reg(name, numeric2(name, f))
		regTyped(name, typedFunc{kind: tfMath2, f2: f})
	}
	rounding := func(name string, f func(float64) float64) {
		reg(name, numeric1Int(name, f))
		regTyped(name, typedFunc{kind: tfRound, f1: f})
	}
	math1("ABS", math.Abs)
	math1("SQRT", math.Sqrt)
	math1("EXP", math.Exp)
	math1("LN", math.Log)
	math1("SIN", math.Sin)
	math1("COS", math.Cos)
	math1("TAN", math.Tan)
	math1("ASIN", math.Asin)
	math1("ACOS", math.Acos)
	math1("ATAN", math.Atan)
	math1("SINH", math.Sinh)
	math1("COSH", math.Cosh)
	math1("TANH", math.Tanh)
	math2("ATAN2", math.Atan2)
	math2("POWER", math.Pow)
	math2("POW", math.Pow)
	reg("MOD", func(args []variant.Value) (variant.Value, error) {
		if err := arity("MOD", args, 2); err != nil {
			return variant.Null, err
		}
		return variant.Mod(args[0], args[1])
	})
	rounding("FLOOR", math.Floor)
	rounding("CEIL", math.Ceil)
	rounding("ROUND", math.Round)
	rounding("TRUNC", math.Trunc)
	regTyped("IFF", typedFunc{kind: tfIff})
	regTyped("GET", typedFunc{kind: tfGet})
	regTyped("SQUARE", typedFunc{kind: tfMath1, f1: func(x float64) float64 { return x * x }})
	reg("PI", func(args []variant.Value) (variant.Value, error) {
		if err := arity("PI", args, 0); err != nil {
			return variant.Null, err
		}
		return variant.Float(math.Pi), nil
	})
	reg("GREATEST", func(args []variant.Value) (variant.Value, error) {
		return extremum(args, 1)
	})
	reg("LEAST", func(args []variant.Value) (variant.Value, error) {
		return extremum(args, -1)
	})
	reg("COALESCE", func(args []variant.Value) (variant.Value, error) {
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return variant.Null, nil
	})
	reg("IFF", func(args []variant.Value) (variant.Value, error) {
		if err := arity("IFF", args, 3); err != nil {
			return variant.Null, err
		}
		if truthySQL(args[0]) {
			return args[1], nil
		}
		return args[2], nil
	})
	reg("NULLIF", func(args []variant.Value) (variant.Value, error) {
		if err := arity("NULLIF", args, 2); err != nil {
			return variant.Null, err
		}
		if variant.Equal(args[0], args[1]) {
			return variant.Null, nil
		}
		return args[0], nil
	})
	reg("EQUAL_NULL", func(args []variant.Value) (variant.Value, error) {
		if err := arity("EQUAL_NULL", args, 2); err != nil {
			return variant.Null, err
		}
		return variant.Bool(variant.Equal(args[0], args[1])), nil
	})
	reg("TO_DOUBLE", func(args []variant.Value) (variant.Value, error) {
		if err := arity("TO_DOUBLE", args, 1); err != nil {
			return variant.Null, err
		}
		if args[0].IsNull() {
			return variant.Null, nil
		}
		f, err := variant.ToFloat(args[0])
		if err != nil {
			return variant.Null, err
		}
		return variant.Float(f), nil
	})
	reg("TO_NUMBER", func(args []variant.Value) (variant.Value, error) {
		if err := arity("TO_NUMBER", args, 1); err != nil {
			return variant.Null, err
		}
		if args[0].IsNull() {
			return variant.Null, nil
		}
		i, err := variant.ToInt(args[0])
		if err != nil {
			return variant.Null, err
		}
		return variant.Int(i), nil
	})
	reg("TO_VARCHAR", func(args []variant.Value) (variant.Value, error) {
		if err := arity("TO_VARCHAR", args, 1); err != nil {
			return variant.Null, err
		}
		if args[0].IsNull() {
			return variant.Null, nil
		}
		if args[0].Kind() == variant.KindString {
			return args[0], nil
		}
		return variant.String(args[0].JSON()), nil
	})
	reg("CONCAT", func(args []variant.Value) (variant.Value, error) {
		var b strings.Builder
		for _, a := range args {
			if a.IsNull() {
				return variant.Null, nil
			}
			if a.Kind() == variant.KindString {
				b.WriteString(a.AsString())
			} else {
				b.WriteString(a.JSON())
			}
		}
		return variant.String(b.String()), nil
	})
	reg("TYPEOF", func(args []variant.Value) (variant.Value, error) {
		if err := arity("TYPEOF", args, 1); err != nil {
			return variant.Null, err
		}
		return variant.String(args[0].Kind().String()), nil
	})
	reg("IS_ARRAY", func(args []variant.Value) (variant.Value, error) {
		if err := arity("IS_ARRAY", args, 1); err != nil {
			return variant.Null, err
		}
		return variant.Bool(args[0].Kind() == variant.KindArray), nil
	})
	reg("SQUARE", func(args []variant.Value) (variant.Value, error) {
		if err := arity("SQUARE", args, 1); err != nil {
			return variant.Null, err
		}
		if args[0].IsNull() {
			return variant.Null, nil
		}
		f, err := variant.ToFloat(args[0])
		if err != nil {
			return variant.Null, err
		}
		return variant.Float(f * f), nil
	})
}

func arity(name string, args []variant.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("engine: %s expects %d arguments, got %d", name, n, len(args))
	}
	return nil
}

func numeric1(name string, fn func(float64) float64) scalarFunc {
	return func(args []variant.Value) (variant.Value, error) {
		if err := arity(name, args, 1); err != nil {
			return variant.Null, err
		}
		if args[0].IsNull() {
			return variant.Null, nil
		}
		f, err := variant.ToFloat(args[0])
		if err != nil {
			return variant.Null, fmt.Errorf("engine: %s: %w", name, err)
		}
		return variant.Float(fn(f)), nil
	}
}

// numeric1Int keeps integer inputs integral (FLOOR(7) = 7, not 7.0).
func numeric1Int(name string, fn func(float64) float64) scalarFunc {
	return func(args []variant.Value) (variant.Value, error) {
		if err := arity(name, args, 1); err != nil {
			return variant.Null, err
		}
		if args[0].IsNull() {
			return variant.Null, nil
		}
		if args[0].Kind() == variant.KindInt {
			return args[0], nil
		}
		f, err := variant.ToFloat(args[0])
		if err != nil {
			return variant.Null, fmt.Errorf("engine: %s: %w", name, err)
		}
		r := fn(f)
		if i, ok := roundedInt(r); ok {
			return variant.Int(i), nil
		}
		return variant.Float(r), nil
	}
}

// roundedInt converts a rounding function's double result to the integer it
// names, unless it is fractional (NaN included) or outside the int64 range,
// where the double stays.
func roundedInt(r float64) (int64, bool) {
	if r != math.Trunc(r) || !variant.FitsInt(r) {
		return 0, false
	}
	return int64(r), true
}

// maxRangeSpan bounds the elements one ARRAY_RANGE produces.
const maxRangeSpan = 1 << 22

// rangeBounds applies ARRAY_RANGE(lo, hi)'s argument rules — NULL when a
// bound is NULL, integer coercion, the span limit — and returns the first
// element and the element count: the function and a FLATTEN streaming its
// elements share them.
func rangeBounds(loV, hiV variant.Value) (lo int64, n int, null bool, err error) {
	if loV.IsNull() || hiV.IsNull() {
		return 0, 0, true, nil
	}
	if lo, err = variant.ToInt(loV); err != nil {
		return 0, 0, false, err
	}
	hi, err := variant.ToInt(hiV)
	if err != nil || hi < lo {
		return lo, 0, false, err
	}
	// hi-lo overflows int64 when the bounds are far apart; as unsigned
	// integers the difference is exact.
	if span := uint64(hi) - uint64(lo); span > maxRangeSpan {
		return 0, 0, false, fmt.Errorf("engine: ARRAY_RANGE span too large (%d)", span)
	}
	return lo, int(hi - lo), false, nil
}

func numeric2(name string, fn func(a, b float64) float64) scalarFunc {
	return func(args []variant.Value) (variant.Value, error) {
		if err := arity(name, args, 2); err != nil {
			return variant.Null, err
		}
		if args[0].IsNull() || args[1].IsNull() {
			return variant.Null, nil
		}
		x, err := variant.ToFloat(args[0])
		if err != nil {
			return variant.Null, fmt.Errorf("engine: %s: %w", name, err)
		}
		y, err := variant.ToFloat(args[1])
		if err != nil {
			return variant.Null, fmt.Errorf("engine: %s: %w", name, err)
		}
		return variant.Float(fn(x, y)), nil
	}
}

func extremum(args []variant.Value, dir int) (variant.Value, error) {
	if len(args) == 0 {
		return variant.Null, fmt.Errorf("engine: GREATEST/LEAST need at least one argument")
	}
	best := variant.Null
	for _, a := range args {
		if a.IsNull() {
			return variant.Null, nil // Snowflake: NULL argument yields NULL
		}
		if best.IsNull() || dir*variant.Compare(a, best) > 0 {
			best = a
		}
	}
	return best, nil
}

// fnGet implements Snowflake's GET: field access with a string key, element
// access with an integer index (0-based). Misses return NULL.
func fnGet(args []variant.Value) (variant.Value, error) {
	if err := arity("GET", args, 2); err != nil {
		return variant.Null, err
	}
	v, key := args[0], args[1]
	switch key.Kind() {
	case variant.KindString:
		return v.Field(key.AsString()), nil
	case variant.KindInt:
		return v.Index(int(key.AsInt())), nil
	case variant.KindFloat:
		return v.Index(int(key.AsFloat())), nil
	}
	return variant.Null, nil
}

// fnGetPath walks a dotted path: GET_PATH(v, 'a.b.c').
func fnGetPath(args []variant.Value) (variant.Value, error) {
	if err := arity("GET_PATH", args, 2); err != nil {
		return variant.Null, err
	}
	if args[1].Kind() != variant.KindString {
		return variant.Null, nil
	}
	v := args[0]
	for _, part := range strings.Split(args[1].AsString(), ".") {
		v = v.Field(part)
	}
	return v, nil
}

// fnObjectConstruct builds an object from alternating key/value arguments.
func fnObjectConstruct(args []variant.Value) (variant.Value, error) {
	if len(args)%2 != 0 {
		return variant.Null, fmt.Errorf("engine: OBJECT_CONSTRUCT expects an even number of arguments")
	}
	o := variant.NewObjectSized(len(args) / 2)
	for i := 0; i < len(args); i += 2 {
		if args[i].Kind() != variant.KindString {
			return variant.Null, fmt.Errorf("engine: OBJECT_CONSTRUCT key %d is not a string", i/2)
		}
		o.Set(args[i].AsString(), args[i+1])
	}
	return variant.ObjectValue(o), nil
}

// Aggregate function names recognized by the planner.
var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"ANY_VALUE": true, "ARRAY_AGG": true, "BOOLAND_AGG": true,
	"BOOLOR_AGG": true, "COUNT_IF": true, "MEDIAN": false,
}

func isAggregateName(name string) bool { return aggregateNames[strings.ToUpper(name)] }
