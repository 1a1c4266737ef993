package engine

import (
	"math"
	"strings"

	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// Typed expression kernels. When a batch column carries a typed view
// (vector.TypedCol aliasing a chunk's typed array), comparisons, arithmetic
// and IS NULL over that column run as tight monomorphic loops — no per-value
// variant dispatch, no materialization. The kernels are not a compiler of
// their own: the DAG's binary and IS NULL instances try them first and
// re-check the batch at run time, so a mixed-type partition (or an operator
// that produced plain variant columns) silently takes the generic path;
// results are identical either way, bit for bit.
//
// The kernels replicate the exact scalar semantics of scalarBinOp and
// variant/arith.go: NULL propagation, int64 wraparound for + - *, `/` always
// producing a double with int/int division-by-zero errors, `%` keeping ints,
// float comparisons where NaN never orders, and cross-kind comparisons via
// the kind-rank total order.

// typedRank mirrors variant's kind-rank order for the kinds a typed column
// can hold (numbers share one rank).
func typedRank(k vector.TypedKind) int {
	switch k {
	case TypedColBool:
		return 1
	case TypedColInt, TypedColFloat:
		return 2
	}
	return 3 // string
}

// Local aliases keep the kernel switch lines readable.
const (
	TypedColInt    = vector.TypedInt64
	TypedColFloat  = vector.TypedFloat64
	TypedColString = vector.TypedString
	TypedColBool   = vector.TypedBool
)

// cmpBool turns a three-way comparison into the operator's boolean result.
func cmpBool(op string, c int) variant.Value {
	switch op {
	case "=":
		return variant.Bool(c == 0)
	case "<>":
		return variant.Bool(c != 0)
	case "<":
		return variant.Bool(c < 0)
	case "<=":
		return variant.Bool(c <= 0)
	case ">":
		return variant.Bool(c > 0)
	}
	return variant.Bool(c >= 0) // ">="
}

// The operators with typed kernels.
var (
	cmpOps   = map[string]bool{"=": true, "<>": true, "<": true, "<=": true, ">": true, ">=": true}
	arithOps = map[string]bool{"+": true, "-": true, "*": true, "/": true, "%": true}
)

// typedBinary runs n's typed kernel into out when its operands are bare
// columns the batch carries typed views of (at least one; a literal operand
// joins in as a constant typed column, so `col op lit`, `lit op col` and
// `colA op colB` are one kernel); done is false when the generic variant path
// must run instead.
func (d *exprDAG) typedBinary(in *exprInst, n *exprNode, b *vector.Batch, out []variant.Value) (done bool, err error) {
	if !cmpOps[n.name] && !arithOps[n.name] {
		return false, nil
	}
	kid := [2]*exprNode{d.nodes[n.kids[0]], d.nodes[n.kids[1]]}
	var side [2]*vector.TypedCol
	cols := 0
	for k, x := range kid {
		if x.op == opCol {
			if side[k] = b.TypedCol(int(x.col)); side[k] == nil {
				return false, nil
			}
			cols++
		}
	}
	for k, x := range kid {
		if x.op == opLit && cols > 0 {
			side[k] = in.constCol(x.lit, d.n)
		}
	}
	lt, rt := side[0], side[1]
	switch {
	case lt == nil || rt == nil:
		return false, nil
	case lt == nullLit || rt == nullLit:
		// NULL literal: every comparison and arithmetic op yields NULL
		// without reading a single column value.
		b.ForEach(func(i int) { out[i] = variant.Null })
		done = true
	case kid[1].op == opLit && typedCmpDict(b, lt, rt, false, n.name, out),
		kid[0].op == opLit && typedCmpDict(b, rt, lt, true, n.name, out):
		done = true
	default:
		done, err = typedColColKernel(b, lt, rt, n.name, out)
	}
	if done && err == nil {
		d.ctx.countTypedCols(cols)
	}
	return done, err
}

// nullLit stands for a NULL literal operand, which has no typed kind.
var nullLit = new(vector.TypedCol)

// constCol returns lit as a typed column of n equal rows, cached on the
// instance between batches; nil when the literal's kind has no typed
// encoding (arrays, objects), which sends the node down the generic path.
func (in *exprInst) constCol(lit variant.Value, n int) *vector.TypedCol {
	if lit.IsNull() {
		return nullLit
	}
	if in.x == nil {
		in.x = &instScratch{}
	}
	if in.x.lit != nil && in.x.lit.Len() >= n {
		return in.x.lit
	}
	n = max(n, 1) // row 0 is read back as the literal itself
	switch lit.Kind() {
	case variant.KindInt:
		in.x.lit = vector.NewInt64Col(repeat(lit.AsInt(), n), nil)
	case variant.KindFloat:
		in.x.lit = vector.NewFloat64Col(repeat(lit.AsFloat(), n), nil)
	case variant.KindString:
		in.x.lit = vector.NewStringCol(repeat(lit.AsString(), n), nil)
	case variant.KindBool:
		in.x.lit = vector.NewBoolCol(repeat(lit.AsBool(), n), nil)
	}
	return in.x.lit
}

func repeat[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// typedCmpDict compares a dictionary-encoded string column with a string
// literal (lit, its constant column) by comparing each distinct string once;
// it reports false, having done nothing, for any other operand pair.
func typedCmpDict(b *vector.Batch, tc, lit *vector.TypedCol, litLeft bool, op string, out []variant.Value) bool {
	codes := tc.Codes()
	if codes == nil || lit.Kind() != TypedColString || !cmpOps[op] {
		return false
	}
	y := lit.StringAt(0)
	res := make([]variant.Value, len(tc.Dict()))
	for c, s := range tc.Dict() {
		if litLeft {
			res[c] = cmpBool(op, strings.Compare(y, s))
		} else {
			res[c] = cmpBool(op, strings.Compare(s, y))
		}
	}
	b.ForEach(func(i int) {
		if tc.Null(i) {
			out[i] = variant.Null
			return
		}
		out[i] = res[codes[i]]
	})
	return true
}

// cmp3 is the three-way comparison of two numbers of one kind. On doubles it
// matches variant.Compare: NaN compares equal to everything (neither < nor >
// fires).
func cmp3[T int64 | float64](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

func cmp3Bool(x, y bool) int {
	switch {
	case x == y:
		return 0
	case !x:
		return -1
	}
	return 1
}

// typedColColKernel evaluates `colA op colB` over two typed views of
// compatible kinds, replicating variant/arith.go exactly: int⊗int keeps int64
// (two's-complement wraparound) except `/` which always yields a double,
// int/int division or mod by zero errors, and any float operand promotes to
// float64 arithmetic. The bool result reports whether the (kinds, op)
// combination has a typed kernel at all.
func typedColColKernel(b *vector.Batch, lt, rt *vector.TypedCol, op string, out []variant.Value) (bool, error) {
	lk, rk := lt.Kind(), rt.Kind()
	numL := lk == TypedColInt || lk == TypedColFloat
	numR := rk == TypedColInt || rk == TypedColFloat
	intInt := lk == TypedColInt && rk == TypedColInt
	if cmpOps[op] {
		var cmp func(i int) int // three-way comparison of row i's two non-null values
		switch {
		case intInt:
			xs, ys := lt.Ints(), rt.Ints()
			cmp = func(i int) int { return cmp3(xs[i], ys[i]) }
		case numL && numR:
			return true, floatKernel(b, lt, rt, op, out)
		case lk == TypedColString && rk == TypedColString:
			cmp = func(i int) int { return strings.Compare(lt.StringAt(i), rt.StringAt(i)) }
		case lk == TypedColBool && rk == TypedColBool:
			xs, ys := lt.Bools(), rt.Bools()
			cmp = func(i int) int { return cmp3Bool(xs[i], ys[i]) }
		case typedRank(lk) != typedRank(rk):
			c := typedRank(lk) - typedRank(rk) // the same for every row pair
			cmp = func(int) int { return c }
		default:
			return false, nil
		}
		b.ForEach(func(i int) {
			if lt.Null(i) || rt.Null(i) {
				out[i] = variant.Null
				return
			}
			out[i] = cmpBool(op, cmp(i))
		})
		return true, nil
	}
	if !numL || !numR {
		return false, nil
	}
	if !intInt || op == "/" {
		return true, floatKernel(b, lt, rt, op, out)
	}
	xs, ys := lt.Ints(), rt.Ints()
	var err error
	b.ForEach(func(i int) {
		if err != nil {
			return
		}
		if lt.Null(i) || rt.Null(i) {
			out[i] = variant.Null
			return
		}
		switch op {
		case "+":
			out[i] = variant.Int(xs[i] + ys[i])
		case "-":
			out[i] = variant.Int(xs[i] - ys[i])
		case "*":
			out[i] = variant.Int(xs[i] * ys[i])
		case "%":
			if ys[i] == 0 {
				_, err = variant.Mod(variant.Int(xs[i]), variant.Int(0))
				return
			}
			out[i] = variant.Int(xs[i] % ys[i])
		}
	})
	return true, err
}

// floatKernel runs a comparison or arithmetic over two numeric columns
// promoted to float64, straight off their backing slices.
func floatKernel(b *vector.Batch, lt, rt *vector.TypedCol, op string, out []variant.Value) error {
	switch {
	case lt.Kind() == TypedColInt && rt.Kind() == TypedColInt:
		return floatLoop(b, lt, rt, lt.Ints(), rt.Ints(), op, out)
	case lt.Kind() == TypedColInt:
		return floatLoop(b, lt, rt, lt.Ints(), rt.Floats(), op, out)
	case rt.Kind() == TypedColInt:
		return floatLoop(b, lt, rt, lt.Floats(), rt.Ints(), op, out)
	}
	return floatLoop(b, lt, rt, lt.Floats(), rt.Floats(), op, out)
}

// floatLoop is floatKernel for one pairing of slice types: only int/int
// reaches it for `/` (division by zero errors there, as in variant.Div).
func floatLoop[X, Y int64 | float64](b *vector.Batch, lt, rt *vector.TypedCol, xs []X, ys []Y, op string, out []variant.Value) error {
	intInt := lt.Kind() == TypedColInt && rt.Kind() == TypedColInt
	var err error
	b.ForEach(func(i int) {
		if err != nil {
			return
		}
		if lt.Null(i) || rt.Null(i) {
			out[i] = variant.Null
			return
		}
		x, y := float64(xs[i]), float64(ys[i])
		switch op {
		case "+":
			out[i] = variant.Float(x + y)
		case "-":
			out[i] = variant.Float(x - y)
		case "*":
			out[i] = variant.Float(x * y)
		case "/":
			if intInt && y == 0 {
				_, err = variant.Div(variant.Int(int64(x)), variant.Int(0))
				return
			}
			out[i] = variant.Float(x / y)
		case "%":
			out[i] = variant.Float(math.Mod(x, y))
		default:
			out[i] = cmpBool(op, cmp3(x, y))
		}
	})
	return err
}

// typedIsNull evaluates IS [NOT] NULL straight off the null bitmap when the
// operand is a column with a typed view.
func (d *exprDAG) typedIsNull(n *exprNode, b *vector.Batch, out []variant.Value) bool {
	operand := d.nodes[n.kids[0]]
	if operand.op != opCol {
		return false
	}
	tc := b.TypedCol(int(operand.col))
	if tc == nil {
		return false
	}
	if !tc.HasNulls() {
		res := variant.Bool(n.flag)
		b.ForEach(func(i int) { out[i] = res })
	} else {
		b.ForEach(func(i int) { out[i] = variant.Bool(tc.Null(i) != n.flag) })
	}
	d.ctx.countTypedCols(1)
	return true
}
