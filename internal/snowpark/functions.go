package snowpark

import (
	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
)

// Functions mirrors Snowpark's static Functions class: free constructors
// composing Columns (Table I of the paper).

// Call invokes any scalar function by name.
func Call(name string, args ...Column) Column {
	exprs := make([]sqlast.Expr, len(args))
	for i, a := range args {
		exprs[i] = a.expr
	}
	return Column{expr: sqlast.F(name, exprs...)}
}

// Math.
func Abs(c Column) Column          { return Call("ABS", c) }
func Sqrt(c Column) Column         { return Call("SQRT", c) }
func Exp(c Column) Column          { return Call("EXP", c) }
func Floor(c Column) Column        { return Call("FLOOR", c) }
func Ceil(c Column) Column         { return Call("CEIL", c) }
func Round(c Column) Column        { return Call("ROUND", c) }
func Sin(c Column) Column          { return Call("SIN", c) }
func Cos(c Column) Column          { return Call("COS", c) }
func Tan(c Column) Column          { return Call("TAN", c) }
func Asin(c Column) Column         { return Call("ASIN", c) }
func Acos(c Column) Column         { return Call("ACOS", c) }
func Atan(c Column) Column         { return Call("ATAN", c) }
func Atan2(y, x Column) Column     { return Call("ATAN2", y, x) }
func Sinh(c Column) Column         { return Call("SINH", c) }
func Cosh(c Column) Column         { return Call("COSH", c) }
func Power(base, p Column) Column  { return Call("POWER", base, p) }
func Pi() Column                   { return Call("PI") }
func Greatest(cs ...Column) Column { return Call("GREATEST", cs...) }
func Least(cs ...Column) Column    { return Call("LEAST", cs...) }

// Conditionals and NULL handling.
func Iff(cond, then, els Column) Column { return Call("IFF", cond, then, els) }
func Coalesce(cs ...Column) Column      { return Call("COALESCE", cs...) }

// CaseWhen starts a searched CASE expression builder.
func CaseWhen(cond, result Column) *CaseBuilder {
	return &CaseBuilder{expr: &sqlast.CaseWhen{
		Whens: []sqlast.WhenClause{{Cond: cond.expr, Result: result.expr}},
	}}
}

// CaseBuilder accumulates WHEN arms.
type CaseBuilder struct {
	expr *sqlast.CaseWhen
}

// When adds another arm.
func (b *CaseBuilder) When(cond, result Column) *CaseBuilder {
	b.expr.Whens = append(b.expr.Whens, sqlast.WhenClause{Cond: cond.expr, Result: result.expr})
	return b
}

// Else finalizes the CASE with a default.
func (b *CaseBuilder) Else(result Column) Column {
	out := *b.expr
	out.Else = result.expr
	return Column{expr: &out}
}

// End finalizes the CASE without a default (NULL otherwise).
func (b *CaseBuilder) End() Column {
	out := *b.expr
	return Column{expr: &out}
}

// Semi-structured constructors and accessors.

// ObjectConstruct builds an object from alternating name literals and value
// columns: ObjectConstruct("a", x, "b", y).
func ObjectConstruct(pairs ...any) Column {
	if len(pairs)%2 != 0 {
		panic("snowpark: ObjectConstruct requires key/value pairs")
	}
	args := make([]sqlast.Expr, 0, len(pairs))
	for i := 0; i < len(pairs); i += 2 {
		key, ok := pairs[i].(string)
		if !ok {
			panic("snowpark: ObjectConstruct keys must be strings")
		}
		val, ok := pairs[i+1].(Column)
		if !ok {
			panic("snowpark: ObjectConstruct values must be Columns")
		}
		args = append(args, sqlast.L(variant.String(key)), val.expr)
	}
	return Column{expr: sqlast.F("OBJECT_CONSTRUCT", args...)}
}

// ArrayConstruct builds an array from columns.
func ArrayConstruct(cs ...Column) Column { return Call("ARRAY_CONSTRUCT", cs...) }

// ArraySize, ArrayCat, ArrayCompact, ArrayRange, ArraySlice wrap the array
// functions.
func ArraySize(c Column) Column            { return Call("ARRAY_SIZE", c) }
func ArrayCat(a, b Column) Column          { return Call("ARRAY_CAT", a, b) }
func ArrayCompact(c Column) Column         { return Call("ARRAY_COMPACT", c) }
func ArrayRange(lo, hi Column) Column      { return Call("ARRAY_RANGE", lo, hi) }
func ArraySlice(c, from, to Column) Column { return Call("ARRAY_SLICE", c, from, to) }

// Get is GET(v, key): field by string, element by 0-based index.
func Get(v, key Column) Column { return Call("GET", v, key) }

// Seq8 yields a distinct integer per row — the row-ID injection primitive
// for nested query handling (§IV-B).
func Seq8() Column { return Call("SEQ8") }

// Aggregates (valid inside GroupBy().Agg or global Agg).

func CountStar() Column {
	return Column{expr: &sqlast.FuncCall{Name: "COUNT", Args: []sqlast.Expr{&sqlast.Star{}}}}
}
func Count(c Column) Column { return Call("COUNT", c) }
func CountDistinct(c Column) Column {
	return Column{expr: &sqlast.FuncCall{Name: "COUNT", Args: []sqlast.Expr{c.expr}, Distinct: true}}
}
func Sum(c Column) Column        { return Call("SUM", c) }
func Avg(c Column) Column        { return Call("AVG", c) }
func Min(c Column) Column        { return Call("MIN", c) }
func Max(c Column) Column        { return Call("MAX", c) }
func AnyValue(c Column) Column   { return Call("ANY_VALUE", c) }
func BoolAndAgg(c Column) Column { return Call("BOOLAND_AGG", c) }
func CountIf(c Column) Column    { return Call("COUNT_IF", c) }

// ArrayAgg collects non-NULL values into an array.
func ArrayAgg(c Column) Column { return Call("ARRAY_AGG", c) }

// ArrayAggOrdered is ARRAY_AGG(v) WITHIN GROUP (ORDER BY keys...).
func ArrayAggOrdered(c Column, keys ...OrderSpec) Column {
	call := &sqlast.FuncCall{Name: "ARRAY_AGG", Args: []sqlast.Expr{c.expr}}
	for _, k := range keys {
		call.WithinOrder = append(call.WithinOrder, sqlast.OrderItem{Expr: k.col.expr, Desc: k.desc})
	}
	return Column{expr: call}
}

// OrderSpec pairs a sort column with a direction.
type OrderSpec struct {
	col  Column
	desc bool
}

// Asc and Desc build order specifications.
func Asc(c Column) OrderSpec  { return OrderSpec{col: c} }
func Desc(c Column) OrderSpec { return OrderSpec{col: c, desc: true} }
