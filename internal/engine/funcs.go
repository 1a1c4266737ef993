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
		if args[0].IsNull() || args[1].IsNull() {
			return variant.Null, nil
		}
		lo, err := variant.ToInt(args[0])
		if err != nil {
			return variant.Null, err
		}
		hi, err := variant.ToInt(args[1])
		if err != nil {
			return variant.Null, err
		}
		if hi < lo {
			return variant.ArrayOf(nil), nil
		}
		if hi-lo > 1<<22 {
			return variant.Null, fmt.Errorf("engine: ARRAY_RANGE span too large (%d)", hi-lo)
		}
		out := make([]variant.Value, 0, hi-lo)
		for i := lo; i < hi; i++ {
			out = append(out, variant.Int(i))
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

	reg("ABS", numeric1("ABS", math.Abs))
	reg("SQRT", numeric1("SQRT", math.Sqrt))
	reg("EXP", numeric1("EXP", math.Exp))
	reg("LN", numeric1("LN", math.Log))
	reg("SIN", numeric1("SIN", math.Sin))
	reg("COS", numeric1("COS", math.Cos))
	reg("TAN", numeric1("TAN", math.Tan))
	reg("ASIN", numeric1("ASIN", math.Asin))
	reg("ACOS", numeric1("ACOS", math.Acos))
	reg("ATAN", numeric1("ATAN", math.Atan))
	reg("SINH", numeric1("SINH", math.Sinh))
	reg("COSH", numeric1("COSH", math.Cosh))
	reg("TANH", numeric1("TANH", math.Tanh))
	reg("ATAN2", numeric2("ATAN2", math.Atan2))
	reg("POWER", numeric2("POWER", math.Pow))
	reg("POW", numeric2("POW", math.Pow))
	reg("MOD", func(args []variant.Value) (variant.Value, error) {
		if err := arity("MOD", args, 2); err != nil {
			return variant.Null, err
		}
		return variant.Mod(args[0], args[1])
	})
	reg("FLOOR", numeric1Int("FLOOR", math.Floor))
	reg("CEIL", numeric1Int("CEIL", math.Ceil))
	reg("ROUND", numeric1Int("ROUND", math.Round))
	reg("TRUNC", numeric1Int("TRUNC", math.Trunc))
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
		if !args[0].IsNull() && args[0].Kind() == variant.KindBool && args[0].AsBool() {
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
		if r == math.Trunc(r) && !math.IsInf(r, 0) {
			return variant.Int(int64(r)), nil
		}
		return variant.Float(r), nil
	}
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
