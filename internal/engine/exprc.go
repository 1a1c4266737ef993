package engine

import (
	"fmt"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
)

// Schema names the columns of a row stream. Later duplicates shadow earlier
// ones, matching SELECT-list alias behaviour.
type Schema struct {
	Names []string
	index map[string]int
}

// NewSchema builds a schema from column names.
func NewSchema(names []string) *Schema {
	s := &Schema{Names: append([]string(nil), names...), index: make(map[string]int, len(names))}
	for i, n := range names {
		s.index[n] = i
	}
	return s
}

// Lookup returns the position of a column.
func (s *Schema) Lookup(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Extend returns a new schema with extra columns appended.
func (s *Schema) Extend(names ...string) *Schema {
	return NewSchema(append(append([]string(nil), s.Names...), names...))
}

// evalFn evaluates one compiled expression against a row.
type evalFn func(row []variant.Value) (variant.Value, error)

// compileExpr binds a SQL expression to a schema for row-at-a-time
// evaluation (join residuals and build keys, constant folding). It is the
// same compile pass as compileVecs — one place resolves names, functions and
// literal keys — read back by evalRow instead of the batch kernels. Flatten
// pseudo-columns resolve as "<alias>.VALUE" / "<alias>.INDEX". The result
// holds state (SEQ counters, argument scratch): one goroutine per compile.
func compileExpr(sc *Schema, e sqlast.Expr) (evalFn, error) {
	c := dagCompilers.Get().(*dagCompiler)
	defer c.release()
	c.sc = sc
	root, err := c.node(e)
	if err != nil {
		return nil, err
	}
	nodes := c.nodes
	return func(row []variant.Value) (variant.Value, error) { return evalRow(nodes, root, row) }, nil
}

// evalRow evaluates node id against one row, with the row engine's lazy
// AND/OR/CASE: the semantics every batch kernel in exprv.go reproduces.
func evalRow(nodes []*exprNode, id int32, row []variant.Value) (variant.Value, error) {
	n := nodes[id]
	switch n.op {
	case opLit:
		return n.lit, nil
	case opCol:
		return row[n.col], nil
	case opSeq:
		n.seq++
		return variant.Int(n.seq - 1), nil
	case opFunc:
		if n.argBuf == nil {
			n.argBuf = make([]variant.Value, len(n.kids))
		}
		for k, kid := range n.kids {
			v, err := evalRow(nodes, kid, row)
			if err != nil {
				return variant.Null, err
			}
			n.argBuf[k] = v
		}
		return n.fn(n.argBuf)
	case opCase:
		for k := 0; k+1 < len(n.kids); k += 2 {
			c, err := evalRow(nodes, n.kids[k], row)
			if err != nil {
				return variant.Null, err
			}
			if !c.IsNull() && truthySQL(c) {
				return evalRow(nodes, n.kids[k+1], row)
			}
		}
		if n.flag {
			return evalRow(nodes, n.kids[len(n.kids)-1], row)
		}
		return variant.Null, nil
	}
	l, err := evalRow(nodes, n.kids[0], row)
	if err != nil {
		return variant.Null, err
	}
	switch n.op {
	case opField:
		return l.Field(n.name), nil
	case opUnary, opIsNull:
		return n.un(l)
	}
	isOr := n.op == opOr
	if n.op != opBin && !l.IsNull() && truthySQL(l) == isOr {
		return variant.Bool(isOr), nil // the left side decides: the right is never evaluated
	}
	r, err := evalRow(nodes, n.kids[1], row)
	switch {
	case err != nil:
		return variant.Null, err
	case n.op == opBin:
		return n.bin(l, r)
	case !r.IsNull() && truthySQL(r) == isOr:
		return variant.Bool(isOr), nil
	case l.IsNull() || r.IsNull():
		return variant.Null, nil
	}
	return variant.Bool(!isOr), nil
}

// scalarBinOp returns the elementwise kernel of a non-logical binary
// operator, shared by the row and batch evaluators.
func scalarBinOp(op string) (func(l, r variant.Value) (variant.Value, error), error) {
	switch op {
	case "+":
		return variant.Add, nil
	case "-":
		return variant.Sub, nil
	case "*":
		return variant.Mul, nil
	case "/":
		return variant.Div, nil
	case "%":
		return variant.Mod, nil
	case "||":
		return func(l, r variant.Value) (variant.Value, error) {
			if l.IsNull() || r.IsNull() {
				return variant.Null, nil
			}
			ls, rs := l, r
			if ls.Kind() != variant.KindString {
				ls = variant.String(ls.JSON())
			}
			if rs.Kind() != variant.KindString {
				rs = variant.String(rs.JSON())
			}
			return variant.String(ls.AsString() + rs.AsString()), nil
		}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		return func(l, r variant.Value) (variant.Value, error) {
			if l.IsNull() || r.IsNull() {
				return variant.Null, nil
			}
			return cmpBool(op, variant.Compare(l, r)), nil
		}, nil
	}
	return nil, fmt.Errorf("engine: unknown binary operator %q", op)
}

// castValue applies a CAST to a non-NULL value; typ is already upper-cased.
// Shared by the row and batch evaluators.
func castValue(typ string, v variant.Value) (variant.Value, error) {
	switch typ {
	case "INT", "INTEGER", "NUMBER", "BIGINT":
		i, err := variant.ToInt(v)
		if err != nil {
			return variant.Null, err
		}
		return variant.Int(i), nil
	case "DOUBLE", "FLOAT", "REAL":
		f, err := variant.ToFloat(v)
		if err != nil {
			return variant.Null, err
		}
		return variant.Float(f), nil
	case "VARCHAR", "STRING", "TEXT":
		if v.Kind() == variant.KindString {
			return v, nil
		}
		return variant.String(v.JSON()), nil
	case "BOOLEAN":
		return variant.Bool(truthySQL(v)), nil
	case "VARIANT":
		return v, nil
	}
	return variant.Null, fmt.Errorf("engine: unsupported cast type %q", typ)
}

// truthySQL reports SQL boolean truth: only boolean TRUE is true; numbers
// are true when non-zero (Snowflake-style implicit boolean coercion).
func truthySQL(v variant.Value) bool {
	switch v.Kind() {
	case variant.KindBool:
		return v.AsBool()
	case variant.KindInt, variant.KindFloat:
		return v.AsFloat() != 0
	}
	return false
}
