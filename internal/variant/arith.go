package variant

import (
	"fmt"
	"math"
)

// Arithmetic and coercion helpers shared by the SQL engine and the JSONiq
// interpreter. NULL propagates through every operation (SQL three-valued
// arithmetic); type errors are reported, not silently coerced.

// errNonNumeric builds a consistent error for arithmetic on a non-number.
func errNonNumeric(op string, v Value) error {
	return fmt.Errorf("variant: %s on non-numeric value of type %s", op, v.Kind())
}

// Add returns a+b with int preservation when both operands are ints.
func Add(a, b Value) (Value, error) { return numericOp("add", a, b) }

// Sub returns a-b.
func Sub(a, b Value) (Value, error) { return numericOp("subtract", a, b) }

// Mul returns a*b.
func Mul(a, b Value) (Value, error) { return numericOp("multiply", a, b) }

// Div returns a/b as a double (JSONiq `div` and SQL `/` semantics).
// Division by zero yields an error for ints and ±Inf for doubles.
func Div(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.IsNumber() {
		return Null, errNonNumeric("divide", a)
	}
	if !b.IsNumber() {
		return Null, errNonNumeric("divide", b)
	}
	x, y := a.AsFloat(), b.AsFloat()
	if y == 0 && a.Kind() == KindInt && b.Kind() == KindInt {
		return Null, fmt.Errorf("variant: integer division by zero")
	}
	return Float(x / y), nil
}

// IDiv returns the integer quotient (JSONiq `idiv`).
func IDiv(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.IsNumber() || !b.IsNumber() {
		return Null, errNonNumeric("idiv", a)
	}
	y := b.AsFloat()
	if y == 0 {
		return Null, fmt.Errorf("variant: idiv by zero")
	}
	q, err := truncInt(a.AsFloat()/y, KindFloat)
	if err != nil {
		return Null, err
	}
	return Int(q), nil
}

// Mod returns the remainder (sign follows the dividend, as in Go and SQL).
func Mod(a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.IsNumber() || !b.IsNumber() {
		return Null, errNonNumeric("mod", a)
	}
	if a.Kind() == KindInt && b.Kind() == KindInt {
		if b.AsInt() == 0 {
			return Null, fmt.Errorf("variant: mod by zero")
		}
		return Int(a.AsInt() % b.AsInt()), nil
	}
	return Float(math.Mod(a.AsFloat(), b.AsFloat())), nil
}

// Neg returns -a.
func Neg(a Value) (Value, error) {
	if a.IsNull() {
		return Null, nil
	}
	switch a.Kind() {
	case KindInt:
		return Int(-a.AsInt()), nil
	case KindFloat:
		return Float(-a.AsFloat()), nil
	}
	return Null, errNonNumeric("negate", a)
}

func numericOp(op string, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if !a.IsNumber() {
		return Null, errNonNumeric(op, a)
	}
	if !b.IsNumber() {
		return Null, errNonNumeric(op, b)
	}
	if a.Kind() == KindInt && b.Kind() == KindInt {
		x, y := a.AsInt(), b.AsInt()
		switch op {
		case "add":
			return Int(x + y), nil
		case "subtract":
			return Int(x - y), nil
		case "multiply":
			return Int(x * y), nil
		}
	}
	x, y := a.AsFloat(), b.AsFloat()
	switch op {
	case "add":
		return Float(x + y), nil
	case "subtract":
		return Float(x - y), nil
	case "multiply":
		return Float(x * y), nil
	}
	return Null, fmt.Errorf("variant: unknown op %q", op)
}

// ToFloat coerces a value to a double: numbers pass through, booleans map to
// 0/1, numeric strings parse. Anything else errors.
func ToFloat(v Value) (float64, error) {
	switch v.Kind() {
	case KindInt, KindFloat:
		return v.AsFloat(), nil
	case KindBool:
		if v.AsBool() {
			return 1, nil
		}
		return 0, nil
	case KindString:
		var f float64
		if _, err := fmt.Sscanf(v.AsString(), "%g", &f); err == nil {
			return f, nil
		}
	}
	return 0, fmt.Errorf("variant: cannot coerce %s to DOUBLE", v.Kind())
}

// ToInt coerces a value to an integer, truncating doubles. A double that is
// NaN, infinite or outside the int64 range does not coerce.
func ToInt(v Value) (int64, error) {
	switch v.Kind() {
	case KindInt:
		return v.AsInt(), nil
	case KindBool:
		if v.AsBool() {
			return 1, nil
		}
		return 0, nil
	}
	f, err := ToFloat(v)
	if err != nil {
		return 0, fmt.Errorf("variant: cannot coerce %s to NUMBER", v.Kind())
	}
	return truncInt(f, v.Kind())
}

// truncInt truncates f to an integer, the coercion of a value of kind k.
func truncInt(f float64, k Kind) (int64, error) {
	t := math.Trunc(f)
	if !FitsInt(t) {
		return 0, fmt.Errorf("variant: cannot coerce %s to NUMBER", k)
	}
	return int64(t), nil
}

// FitsInt reports whether f lies in [-2^63, 2^63), the doubles whose integral
// values convert to int64 exactly; NaN and ±Inf do not.
func FitsInt(f float64) bool { return f >= -(1<<63) && f < 1<<63 }
