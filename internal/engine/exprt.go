package engine

import (
	"math"
	"strings"

	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// Typed registers and kernels. Every register slot of an expression DAG has
// a typed form beside its variant one (exprDAG.tregs): int64, float64 or bool
// values plus a null bitmap, a vector.TypedCol register the DAG owns. Whether
// an instance's result is typed is decided per batch, at run time: a kernel
// below runs when its operands are typed in this batch — a typed column of
// the input, a literal read as a scalar, another instance's typed result —
// and writes the instance's typed register (exprDAG.forms records which
// instances did). Otherwise the generic kernel (scalarBinOp, scalarFuncs)
// runs over variants, and load converts a typed operand for it once per
// instance per batch. Field access and GET by index type their result when
// every value they extract is NULL or of one kind. Comparisons, AND, OR, NOT
// and IS [NOT] NULL always yield booleans, so they write the typed register
// whatever their operands are. With typed registers off (WithTypedColumns)
// nothing is typed and every result is a variant.
//
// The kernels replicate the exact semantics of the variant path
// (variant/arith.go, funcs.go): NULL propagation, int64 wraparound for + - *,
// `/` always producing a double with int/int division by zero an error, `%`
// keeping ints and erroring on an int zero divisor, a mixed int and float
// pair promoted to float, comparisons where NaN equals NaN and sorts above
// +Inf (variant.CompareFloat), and cross-kind
// comparisons by kind rank. Errors carry the variant path's text.

// Local aliases keep the kernel switch lines readable.
const (
	TypedColInt    = vector.TypedInt64
	TypedColFloat  = vector.TypedFloat64
	TypedColString = vector.TypedString
	TypedColBool   = vector.TypedBool
)

// The operators with typed kernels, fixed at compile time in exprNode.kern
// (a function's kern indexes typedFuncs instead).
const (
	kAdd uint8 = iota + 1
	kSub
	kMul
	kDiv
	kMod
	kEq
	kNe
	kLt
	kLe
	kGt
	kGe
	kNeg
	kNot
)

var (
	binKerns = map[string]uint8{
		"+": kAdd, "-": kSub, "*": kMul, "/": kDiv, "%": kMod,
		"=": kEq, "<>": kNe, "<": kLt, "<=": kLe, ">": kGt, ">=": kGe,
	}
	unaryKerns = map[string]uint8{"-": kNeg, "NOT": kNot}
)

func isCmp(k uint8) bool { return k >= kEq && k <= kGe }

func isNum(k vector.TypedKind) bool { return k == TypedColInt || k == TypedColFloat }

// typedRank mirrors variant's kind-rank order for the kinds a typed vector
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

// cmpTrue turns a three-way comparison into comparison op's result.
func cmpTrue(op uint8, c int) bool {
	switch op {
	case kEq:
		return c == 0
	case kNe:
		return c != 0
	case kLt:
		return c < 0
	case kLe:
		return c <= 0
	case kGt:
		return c > 0
	}
	return c >= 0 // kGe
}

// cmp3 is the three-way comparison of two numbers of one kind. On doubles it
// matches variant.Compare: NaN equals NaN and sorts above +Inf.
func cmp3[T int64 | float64](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case x == y:
		return 0
	}
	return variant.CompareFloat(float64(x), float64(y)) // a NaN
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

// scalar is a literal operand as a typed kernel reads it.
type scalar struct {
	kind vector.TypedKind
	null bool
	i    int64
	f    float64
	b    bool
	s    string
}

// scalar returns instance id's value when it is a literal a typed kernel can
// read: NULL, a number, a boolean or a string. Array and object literals,
// and every literal with typed registers off, are not.
func (d *exprDAG) scalar(id int32) (scalar, bool) {
	n := d.nodes[d.insts[id].node]
	if n.op != opLit || !d.typed {
		return scalar{}, false
	}
	switch v := n.lit; v.Kind() {
	case variant.KindNull:
		return scalar{null: true}, true
	case variant.KindInt:
		return scalar{kind: TypedColInt, i: v.AsInt()}, true
	case variant.KindFloat:
		return scalar{kind: TypedColFloat, f: v.AsFloat()}, true
	case variant.KindBool:
		return scalar{kind: TypedColBool, b: v.AsBool()}, true
	case variant.KindString:
		return scalar{kind: TypedColString, s: v.AsString()}, true
	}
	return scalar{}, false
}

// kindOf is an operand's kind: its vector's when it has one, else the
// scalar's.
func kindOf(tc *vector.TypedCol, s scalar) vector.TypedKind {
	if tc != nil {
		return tc.Kind()
	}
	return s.kind
}

func nullAt(tc *vector.TypedCol, i int) bool { return tc != nil && tc.Null(i) }

// typedOut resets instance id's typed register to kind over the batch and
// records it as the instance's result.
func (d *exprDAG) typedOut(id int32, kind vector.TypedKind) *vector.TypedCol {
	t := &d.tregs[d.insts[id].slot]
	t.Reset(kind, d.n)
	d.forms.Typed[id] = t
	return t
}

// allNull makes instance id's result NULL on every row of sel.
func (d *exprDAG) allNull(id int32, sel []int) {
	t := d.typedOut(id, TypedColFloat)
	for _, i := range sel {
		t.SetNull(i)
	}
}

// countReads counts the typed vectors among a kernel's operands.
func (d *exprDAG) countReads(xc, yc *vector.TypedCol) {
	if xc != nil {
		d.nTyped++
	}
	if yc != nil {
		d.nTyped++
	}
}

// boolOut is where a kernel whose result is always a boolean or NULL writes
// it: the instance's typed register, or its variant register with typed
// registers off.
type boolOut struct {
	t    *vector.TypedCol
	res  []bool
	vals []variant.Value
}

func (d *exprDAG) boolOut(id int32) boolOut {
	if !d.typed {
		return boolOut{vals: d.reg(&d.insts[id])}
	}
	t := d.typedOut(id, TypedColBool)
	return boolOut{t: t, res: t.Bools()}
}

func (w boolOut) set(i int, v bool) {
	if w.t == nil {
		w.vals[i] = variant.Bool(v)
		return
	}
	w.res[i] = v
}

func (w boolOut) null(i int) {
	if w.t == nil {
		w.vals[i] = variant.Null
		return
	}
	w.t.SetNull(i)
}

// truthVec is an operand that is not typed in this batch, read as SQL truth
// values: its variant vector, or its literal when vals is nil.
type truthVec struct {
	vals []variant.Value
	lit  variant.Value
}

// truthOf prepares operand id for truthAt: nothing when it is typed (tc, its
// typed form, is what truthAt reads then), its variant form otherwise.
func (d *exprDAG) truthOf(b *vector.Batch, id int32, tc *vector.TypedCol) truthVec {
	if tc != nil {
		d.nTyped++
		return truthVec{}
	}
	vals, lit := d.arg(b, id)
	return truthVec{vals: vals, lit: lit}
}

// truthAt reads row i of an operand as SQL truth, from its typed form tc when
// it has one: only boolean TRUE and non-zero numbers are true.
func truthAt(tc *vector.TypedCol, t *truthVec, i int) (val, null bool) {
	if tc == nil {
		v := at(t.vals, t.lit, i)
		return truthySQL(v), v.IsNull()
	}
	if tc.Null(i) {
		return false, true
	}
	switch tc.Kind() {
	case TypedColBool:
		return tc.Bools()[i], false
	case TypedColInt:
		return tc.Ints()[i] != 0, false
	case TypedColFloat:
		return tc.Floats()[i] != 0, false
	}
	return false, false // a string is never true
}

// splitTruth sorts the rows of sel by operand id's SQL truth: to yes where
// it is not NULL and equals want, to no otherwise. A typed boolean without
// NULLs, the usual operand, splits straight off its values.
func (d *exprDAG) splitTruth(b *vector.Batch, id int32, want bool, sel, yes, no []int) ([]int, []int) {
	tc := d.forms.Typed[id]
	if tc != nil && tc.Kind() == TypedColBool && !tc.HasNulls() {
		d.nTyped++
		vals := tc.Bools()
		for _, i := range sel {
			if vals[i] == want {
				yes = append(yes, i)
			} else {
				no = append(no, i)
			}
		}
		return yes, no
	}
	t := d.truthOf(b, id, tc)
	for _, i := range sel {
		if v, null := truthAt(tc, &t, i); !null && v == want {
			yes = append(yes, i)
		} else {
			no = append(no, i)
		}
	}
	return yes, no
}

// --- comparisons and arithmetic -------------------------------------------------

// typedPair reports whether both operands of a binary instance are typed in
// this batch — a vector, which at least one is, or a literal scalar — and
// returns their scalars.
func (d *exprDAG) typedPair(in *exprInst) (xs, ys scalar, ok bool) {
	xc, yc := d.forms.Typed[in.args[0]] != nil, d.forms.Typed[in.args[1]] != nil
	xs, xok := d.scalar(in.args[0])
	ys, yok := d.scalar(in.args[1])
	return xs, ys, (xc || xok) && (yc || yok) && (xc || yc)
}

// execCompare evaluates a comparison: through the typed kernel when both
// operands are typed in this batch, else over their variants. Its result is
// boolean either way.
func (d *exprDAG) execCompare(id int32, op uint8, b *vector.Batch, sel []int) {
	in := &d.insts[id]
	if xs, ys, ok := d.typedPair(in); ok {
		d.typedCompare(id, op, sel, xs, ys)
		return
	}
	l, ll := d.arg(b, in.args[0])
	r, rl := d.arg(b, in.args[1])
	w := d.boolOut(id)
	for _, i := range sel {
		x, y := at(l, ll, i), at(r, rl, i)
		if x.IsNull() || y.IsNull() {
			w.null(i)
			continue
		}
		w.set(i, cmpTrue(op, variant.Compare(x, y)))
	}
}

// typedCompare is the comparison kernel over two typed operands.
func (d *exprDAG) typedCompare(id int32, op uint8, sel []int, xs, ys scalar) {
	in := &d.insts[id]
	xc, yc := d.forms.Typed[in.args[0]], d.forms.Typed[in.args[1]]
	d.countReads(xc, yc)
	if xs.null || ys.null {
		d.allNull(id, sel)
		return
	}
	out := d.typedOut(id, TypedColBool)
	res := out.Bools()
	xk, yk := kindOf(xc, xs), kindOf(yc, ys)
	var xi, yi []int64
	var xf, yf []float64
	var xb, yb []bool
	if xc != nil {
		xi, xf, xb = xc.Ints(), xc.Floats(), xc.Bools()
	}
	if yc != nil {
		yi, yf, yb = yc.Ints(), yc.Floats(), yc.Bools()
	}
	switch {
	case xk == TypedColInt && yk == TypedColInt:
		cmpNum(op, sel, xi, xs.i, yi, ys.i, true, res)
	case xk == TypedColInt && yk == TypedColFloat:
		cmpNum(op, sel, xi, xs.i, yf, ys.f, false, res)
	case xk == TypedColFloat && yk == TypedColInt:
		cmpNum(op, sel, xf, xs.f, yi, ys.i, false, res)
	case xk == TypedColFloat && yk == TypedColFloat:
		cmpNum(op, sel, xf, xs.f, yf, ys.f, false, res)
	case xk == TypedColBool && yk == TypedColBool:
		for _, i := range sel {
			x, y := xs.b, ys.b
			if xb != nil {
				x = xb[i]
			}
			if yb != nil {
				y = yb[i]
			}
			res[i] = cmpTrue(op, cmp3Bool(x, y))
		}
	case xk == TypedColString && yk == TypedColString:
		switch {
		case xc == nil:
			in.cmpStringLit(op, sel, yc, xs.s, true, res)
		case yc == nil:
			in.cmpStringLit(op, sel, xc, ys.s, false, res)
		default:
			for _, i := range sel {
				if !xc.Null(i) && !yc.Null(i) {
					res[i] = cmpTrue(op, strings.Compare(xc.StringAt(i), yc.StringAt(i)))
				}
			}
		}
	default:
		r := cmpTrue(op, typedRank(xk)-typedRank(yk)) // the same for every row pair
		for _, i := range sel {
			res[i] = r
		}
	}
	out.NullsFrom(xc, sel)
	out.NullsFrom(yc, sel)
}

// cmpNum compares two numeric operands, each a vector or (when its vector is
// nil) a scalar: exactly as integers when both are, else as doubles.
func cmpNum[X, Y int64 | float64](op uint8, sel []int, xv []X, xs X, yv []Y, ys Y, intInt bool, res []bool) {
	for _, i := range sel {
		x, y := xs, ys
		if xv != nil {
			x = xv[i]
		}
		if yv != nil {
			y = yv[i]
		}
		var c int
		if intInt {
			c = cmp3(int64(x), int64(y))
		} else {
			c = cmp3(float64(x), float64(y))
		}
		res[i] = cmpTrue(op, c)
	}
}

// cmpStringLit compares a string column with a string literal (on the left
// when litLeft). A dictionary-encoded column compares each distinct string
// once, through a table kept on the instance until the dictionary changes.
func (in *exprInst) cmpStringLit(op uint8, sel []int, tc *vector.TypedCol, lit string, litLeft bool, res []bool) {
	cmp := func(s string) bool {
		if litLeft {
			return cmpTrue(op, strings.Compare(lit, s))
		}
		return cmpTrue(op, strings.Compare(s, lit))
	}
	codes := tc.Codes()
	if codes == nil {
		for _, i := range sel {
			if !tc.Null(i) {
				res[i] = cmp(tc.StringAt(i))
			}
		}
		return
	}
	if in.x == nil {
		in.x = &instScratch{}
	}
	table := in.x.dict.Table(tc, func(dict []string, table []bool) {
		for c, s := range dict {
			table[c] = cmp(s)
		}
	})
	for _, i := range sel {
		if !tc.Null(i) {
			res[i] = table[codes[i]]
		}
	}
}

// typedArith is the kernel of + - * / % (op), or of a two-argument math
// function f (op 0), over two numeric operands typed in this batch, into
// instance id's register; false when the generic kernel must run instead.
func (d *exprDAG) typedArith(id int32, op uint8, f func(x, y float64) float64, sel []int) (bool, error) {
	in := &d.insts[id]
	xs, ys, ok := d.typedPair(in)
	xc, yc := d.forms.Typed[in.args[0]], d.forms.Typed[in.args[1]]
	if xk, yk := kindOf(xc, xs), kindOf(yc, ys); !ok || !xs.null && !isNum(xk) || !ys.null && !isNum(yk) {
		return false, nil
	}
	d.countReads(xc, yc)
	if xs.null || ys.null {
		d.allNull(id, sel)
		return true, nil
	}
	var xi, yi []int64
	var xf, yf []float64
	if xc != nil {
		xi, xf = xc.Ints(), xc.Floats()
	}
	if yc != nil {
		yi, yf = yc.Ints(), yc.Floats()
	}
	var out *vector.TypedCol
	var err error
	switch xk, yk := kindOf(xc, xs), kindOf(yc, ys); {
	case xk == TypedColInt && yk == TypedColInt && op != kDiv && op != 0:
		out = d.typedOut(id, TypedColInt)
		err = intArith(op, sel, xi, xs.i, yi, ys.i, xc, yc, out.Ints())
	case xk == TypedColInt && yk == TypedColInt:
		out = d.typedOut(id, TypedColFloat)
		err = floatArith(op, f, sel, xi, xs.i, yi, ys.i, xc, yc, true, out.Floats())
	case xk == TypedColInt:
		out = d.typedOut(id, TypedColFloat)
		err = floatArith(op, f, sel, xi, xs.i, yf, ys.f, xc, yc, false, out.Floats())
	case yk == TypedColInt:
		out = d.typedOut(id, TypedColFloat)
		err = floatArith(op, f, sel, xf, xs.f, yi, ys.i, xc, yc, false, out.Floats())
	default:
		out = d.typedOut(id, TypedColFloat)
		err = floatArith(op, f, sel, xf, xs.f, yf, ys.f, xc, yc, false, out.Floats())
	}
	out.NullsFrom(xc, sel)
	out.NullsFrom(yc, sel)
	return true, err
}

// intArith is + - * % over two int operands, each a vector or (nil) a
// scalar, with two's-complement wraparound; a zero divisor on a row that is
// not NULL fails with variant.Mod's error.
func intArith(op uint8, sel []int, xv []int64, xs int64, yv []int64, ys int64, xc, yc *vector.TypedCol, out []int64) error {
	for _, i := range sel {
		x, y := xs, ys
		if xv != nil {
			x = xv[i]
		}
		if yv != nil {
			y = yv[i]
		}
		switch op {
		case kAdd:
			out[i] = x + y
		case kSub:
			out[i] = x - y
		case kMul:
			out[i] = x * y
		case kMod:
			if y == 0 {
				if nullAt(xc, i) || nullAt(yc, i) {
					continue
				}
				_, err := variant.Mod(variant.Int(x), variant.Int(0))
				return err
			}
			out[i] = x % y
		}
	}
	return nil
}

// floatArith is an arithmetic operator, or (op 0) a math function f, over
// two numeric operands promoted to doubles; int/int division (intInt) by zero
// on a row that is not NULL fails with variant.Div's error.
func floatArith[X, Y int64 | float64](op uint8, f func(x, y float64) float64, sel []int, xv []X, xs X, yv []Y, ys Y, xc, yc *vector.TypedCol, intInt bool, out []float64) error {
	for _, i := range sel {
		x, y := xs, ys
		if xv != nil {
			x = xv[i]
		}
		if yv != nil {
			y = yv[i]
		}
		fx, fy := float64(x), float64(y)
		switch op {
		case 0:
			out[i] = f(fx, fy)
		case kAdd:
			out[i] = fx + fy
		case kSub:
			out[i] = fx - fy
		case kMul:
			out[i] = fx * fy
		case kDiv:
			if intInt && fy == 0 && !nullAt(xc, i) && !nullAt(yc, i) {
				_, err := variant.Div(variant.Int(0), variant.Int(0))
				return err
			}
			out[i] = fx / fy
		case kMod:
			out[i] = math.Mod(fx, fy)
		}
	}
	return nil
}

// --- unary operators ------------------------------------------------------------

// typedNeg negates a typed number; false when the operand is not one.
func (d *exprDAG) typedNeg(id int32, sel []int, xc *vector.TypedCol) bool {
	if xc == nil || !isNum(xc.Kind()) {
		return false
	}
	out := d.typedOut(id, xc.Kind())
	if xc.Kind() == TypedColInt {
		xs, res := xc.Ints(), out.Ints()
		for _, i := range sel {
			res[i] = -xs[i]
		}
	} else {
		xs, res := xc.Floats(), out.Floats()
		for _, i := range sel {
			res[i] = -xs[i]
		}
	}
	out.NullsFrom(xc, sel)
	d.nTyped++
	return true
}

// execNot evaluates NOT: NULL stays NULL, anything else flips its SQL truth.
func (d *exprDAG) execNot(id int32, b *vector.Batch, sel []int) {
	arg := d.insts[id].args[0]
	tc := d.forms.Typed[arg]
	t := d.truthOf(b, arg, tc)
	w := d.boolOut(id)
	for _, i := range sel {
		if v, null := truthAt(tc, &t, i); null {
			w.null(i)
		} else {
			w.set(i, !v)
		}
	}
}

// execIsNull evaluates IS NULL (IS NOT NULL when negate), off the null
// bitmap when the operand is typed.
func (d *exprDAG) execIsNull(id int32, negate bool, b *vector.Batch, sel []int) {
	arg := d.insts[id].args[0]
	w := d.boolOut(id)
	if tc := d.forms.Typed[arg]; tc != nil {
		d.nTyped++
		for _, i := range sel {
			w.set(i, tc.Null(i) != negate)
		}
		return
	}
	vals, lit := d.arg(b, arg)
	for _, i := range sel {
		w.set(i, at(vals, lit, i).IsNull() != negate)
	}
}

// --- functions --------------------------------------------------------------------

// execTypedFunc runs a function's typed kernel when its operands are typed in
// this batch, reporting false when the generic function must run instead
// (which also reports arity errors).
func (d *exprDAG) execTypedFunc(id int32, n *exprNode, b *vector.Batch, sel []int) (bool, error) {
	args := d.insts[id].args
	tf := &typedFuncs[n.kern-1]
	switch tf.kind {
	case tfMath1, tfRound:
		if len(args) != 1 {
			return false, nil
		}
		xc := d.forms.Typed[args[0]]
		if xc == nil || !isNum(xc.Kind()) {
			return false, nil
		}
		if tf.kind == tfRound {
			return d.typedRound(id, tf.f1, sel, xc), nil
		}
		out := d.typedOut(id, TypedColFloat)
		if xc.Kind() == TypedColInt {
			math1(sel, xc.Ints(), tf.f1, out.Floats())
		} else {
			math1(sel, xc.Floats(), tf.f1, out.Floats())
		}
		out.NullsFrom(xc, sel)
		d.nTyped++
	case tfMath2:
		if len(args) != 2 {
			return false, nil
		}
		return d.typedArith(id, 0, tf.f2, sel)
	case tfIff:
		return d.typedIff(id, sel), nil
	case tfGet:
		return d.typedGet(id, b, sel), nil
	}
	return true, nil
}

func math1[X int64 | float64](sel []int, xv []X, f func(float64) float64, out []float64) {
	for _, i := range sel {
		out[i] = f(float64(xv[i]))
	}
}

// typedRound is FLOOR, CEIL, ROUND or TRUNC (f) over a typed number: an int
// stays itself, and doubles give ints when every result is integral and in
// range. Otherwise it reports false and the generic function, which keeps
// such a result a double, runs instead.
func (d *exprDAG) typedRound(id int32, f func(float64) float64, sel []int, xc *vector.TypedCol) bool {
	out := d.typedOut(id, TypedColInt)
	res := out.Ints()
	if xc.Kind() == TypedColInt {
		copy(res, xc.Ints())
	} else {
		xs := xc.Floats()
		for _, i := range sel {
			if xc.HasNulls() && xc.Null(i) {
				continue
			}
			r, ok := roundedInt(f(xs[i]))
			if !ok {
				d.forms.Typed[id] = nil
				return false
			}
			res[i] = r
		}
	}
	out.NullsFrom(xc, sel)
	d.nTyped++
	return true
}

// typedIff is IFF(cond, a, b) over a typed boolean condition and two typed
// operands of one kind (a NULL literal matches any).
func (d *exprDAG) typedIff(id int32, sel []int) bool {
	args := d.insts[id].args
	if len(args) != 3 {
		return false
	}
	cc, ac, bc := d.forms.Typed[args[0]], d.forms.Typed[args[1]], d.forms.Typed[args[2]]
	as, aok := d.scalar(args[1])
	bs, bok := d.scalar(args[2])
	if cc == nil || cc.Kind() != TypedColBool || !(ac != nil || aok) || !(bc != nil || bok) {
		return false
	}
	var kind vector.TypedKind
	switch {
	case as.null && bs.null:
		return false
	case as.null:
		kind = kindOf(bc, bs)
	case bs.null:
		kind = kindOf(ac, as)
	default:
		if kind = kindOf(ac, as); kind != kindOf(bc, bs) {
			return false
		}
	}
	if kind == TypedColString {
		return false
	}
	out := d.typedOut(id, kind)
	cond := cc.Bools()
	for _, i := range sel {
		src, s := bc, bs
		if !cc.Null(i) && cond[i] {
			src, s = ac, as
		}
		switch {
		case src == nil && s.null, nullAt(src, i):
			out.SetNull(i)
		case kind == TypedColInt:
			out.Ints()[i] = s.i
			if src != nil {
				out.Ints()[i] = src.Ints()[i]
			}
		case kind == TypedColFloat:
			out.Floats()[i] = s.f
			if src != nil {
				out.Floats()[i] = src.Floats()[i]
			}
		default:
			out.Bools()[i] = s.b
			if src != nil {
				out.Bools()[i] = src.Bools()[i]
			}
		}
	}
	d.countReads(cc, ac)
	d.countReads(bc, nil)
	return true
}

// typedGet is GET(array, i) with a typed numeric index: the element, typed
// when the batch's elements are (extract).
func (d *exprDAG) typedGet(id int32, b *vector.Batch, sel []int) bool {
	args := d.insts[id].args
	if len(args) != 2 {
		return false
	}
	kc := d.forms.Typed[args[1]]
	ks, ok := d.scalar(args[1])
	if kc == nil && (!ok || ks.null) || !isNum(kindOf(kc, ks)) {
		return false
	}
	intKey := kindOf(kc, ks) == TypedColInt
	var ki []int64
	var kf []float64
	if kc != nil {
		ki, kf = kc.Ints(), kc.Floats()
		d.nTyped++
	}
	arr, lit := d.arg(b, args[0])
	d.extract(id, sel, func(i int) variant.Value {
		// fnGet's conversions: an int key as it is, a double truncated.
		k := int(ks.i)
		switch {
		case nullAt(kc, i):
			return variant.Null
		case kc != nil && intKey:
			k = int(ki[i])
		case kc != nil:
			k = int(kf[i])
		case !intKey:
			k = int(ks.f)
		}
		return at(arr, lit, i).Index(k)
	})
	return true
}

// extract writes get(i) for every row of sel as instance id's result: into
// its typed register while every value that is not NULL is of one kind —
// int, float or bool — and into its variant register from the first value
// that breaks that.
func (d *exprDAG) extract(id int32, sel []int, get func(i int) variant.Value) {
	if !d.typed {
		out := d.reg(&d.insts[id])
		for _, i := range sel {
			out[i] = get(i)
		}
		return
	}
	t := d.typedOut(id, TypedColFloat)
	kind := variant.KindNull
	for k, i := range sel {
		v := get(i)
		switch vk := v.Kind(); {
		case vk == variant.KindNull:
			t.SetNull(i)
			continue
		case vk == kind:
		case kind == variant.KindNull && (vk == variant.KindInt || vk == variant.KindFloat || vk == variant.KindBool):
			kind = vk
			if tk := registerKind(vk); tk != TypedColFloat {
				t.Reset(tk, d.n)
				for _, j := range sel[:k] {
					t.SetNull(j)
				}
			}
		default:
			out := d.untype(id, sel[:k])
			out[i] = v
			for _, j := range sel[k+1:] {
				out[j] = get(j)
			}
			return
		}
		switch kind {
		case variant.KindInt:
			t.Ints()[i] = v.AsInt()
		case variant.KindFloat:
			t.Floats()[i] = v.AsFloat()
		default:
			t.Bools()[i] = v.AsBool()
		}
	}
}

func registerKind(k variant.Kind) vector.TypedKind {
	switch k {
	case variant.KindInt:
		return TypedColInt
	case variant.KindBool:
		return TypedColBool
	}
	return TypedColFloat
}

// untype moves instance id's typed result on rows into its variant register,
// which holds the instance's result from then on.
func (d *exprDAG) untype(id int32, rows []int) []variant.Value {
	t := d.forms.Typed[id]
	d.forms.Typed[id] = nil
	out := d.reg(&d.insts[id])
	for _, j := range rows {
		out[j] = t.ValueAt(j)
	}
	return out
}
