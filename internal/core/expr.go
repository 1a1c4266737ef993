package core

import (
	"fmt"

	"jsonpark/internal/jsoniq"
	"jsonpark/internal/snowpark"
)

// expr translates a non-FLWOR expression into a Column, mirroring the
// processNativeSnowflake method of non-FLWOR iterators (§III-B1, Listing 2).
// Expressions hosting nested queries return an updated DataFrame alongside
// the Column (§IV-D); all other cases thread the incoming DataFrame through
// unchanged.
func (tr *translator) expr(df *snowpark.DataFrame, e jsoniq.Expr) (snowpark.Column, *snowpark.DataFrame, error) {
	switch x := e.(type) {
	case *jsoniq.Literal:
		return snowpark.Lit(x.Value), df, nil
	case *jsoniq.VarRef:
		return colByName(x.Name), df, nil
	case *jsoniq.Collection:
		return snowpark.Column{}, nil, fmt.Errorf("core: collection(%q) is only allowed in for clauses", x.Name)
	case *jsoniq.FieldAccess:
		if vr, ok := x.Base.(*jsoniq.VarRef); ok {
			if cols, known := tr.tableVars[vr.Name]; known {
				for _, c := range cols {
					if c == x.Field {
						return snowpark.Col(vr.Name + "." + x.Field), df, nil
					}
				}
			}
		}
		base, df2, err := tr.expr(df, x.Base)
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		return base.SubField(x.Field), df2, nil
	case *jsoniq.ArrayUnbox:
		// In expression position the unboxed members behave as the array
		// value itself; iteration happens in for clauses and aggregates.
		return tr.expr(df, x.Base)
	case *jsoniq.ArrayIndex:
		base, df2, err := tr.expr(df, x.Base)
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		idx, df3, err := tr.expr(df2, x.Index)
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		// JSONiq positions are 1-based; GET is 0-based.
		return snowpark.Get(base, idx.Sub(snowpark.LitInt(1))), df3, nil
	case *jsoniq.ObjectCtor:
		pairs := make([]any, 0, 2*len(x.Keys))
		cur := df
		for i, k := range x.Keys {
			col, ndf, err := tr.expr(cur, x.Values[i])
			if err != nil {
				return snowpark.Column{}, nil, err
			}
			cur = ndf
			pairs = append(pairs, k, col)
		}
		return snowpark.ObjectConstruct(pairs...), cur, nil
	case *jsoniq.ArrayCtor:
		cols := make([]snowpark.Column, len(x.Items))
		cur := df
		for i, it := range x.Items {
			col, ndf, err := tr.expr(cur, it)
			if err != nil {
				return snowpark.Column{}, nil, err
			}
			cur = ndf
			cols[i] = col
		}
		return snowpark.ArrayConstruct(cols...), cur, nil
	case *jsoniq.Binary:
		return tr.binary(df, x)
	case *jsoniq.Unary:
		o, df2, err := tr.expr(df, x.Operand)
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		if x.Op == "not" {
			return o.Not(), df2, nil
		}
		return o.Neg(), df2, nil
	case *jsoniq.If:
		cond, df2, err := tr.expr(df, x.Cond)
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		then, df3, err := tr.expr(df2, x.Then)
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		els, df4, err := tr.expr(df3, x.Else)
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		return snowpark.Iff(cond, then, els), df4, nil
	case *jsoniq.FunctionCall:
		return tr.functionCall(df, x)
	case *jsoniq.FLWOR:
		// A nested query in expression position produces an array column
		// (transparent re-aggregation, §IV-B).
		return tr.nestedQuery(df, x, x, aggArray)
	}
	return snowpark.Column{}, nil, fmt.Errorf("core: cannot translate expression %T", e)
}

func (tr *translator) binary(df *snowpark.DataFrame, x *jsoniq.Binary) (snowpark.Column, *snowpark.DataFrame, error) {
	l, df2, err := tr.expr(df, x.Left)
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	r, df3, err := tr.expr(df2, x.Right)
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	switch x.Op {
	case jsoniq.OpAdd:
		return l.Add(r), df3, nil
	case jsoniq.OpSub:
		return l.Sub(r), df3, nil
	case jsoniq.OpMul:
		return l.Mul(r), df3, nil
	case jsoniq.OpDiv:
		return l.Div(r), df3, nil
	case jsoniq.OpIDiv:
		return snowpark.Call("TRUNC", l.Div(r)).Cast("NUMBER"), df3, nil
	case jsoniq.OpMod:
		return l.Mod(r), df3, nil
	case jsoniq.OpEq:
		return l.Eq(r), df3, nil
	case jsoniq.OpNe:
		return l.Ne(r), df3, nil
	case jsoniq.OpLt:
		return l.Lt(r), df3, nil
	case jsoniq.OpLe:
		return l.Le(r), df3, nil
	case jsoniq.OpGt:
		return l.Gt(r), df3, nil
	case jsoniq.OpGe:
		return l.Ge(r), df3, nil
	case jsoniq.OpAnd:
		return l.And(r), df3, nil
	case jsoniq.OpOr:
		return l.Or(r), df3, nil
	case jsoniq.OpConcat:
		return l.Concat(r), df3, nil
	case jsoniq.OpTo:
		// `a to b` is the inclusive integer range; ARRAY_RANGE is [lo, hi).
		return snowpark.ArrayRange(l, r.Add(snowpark.LitInt(1))), df3, nil
	}
	return snowpark.Column{}, nil, fmt.Errorf("core: unsupported operator %s", x.Op)
}

// scalarFunctions maps plain JSONiq builtins onto SQL scalar functions.
var scalarFunctions = map[string]string{
	"abs": "ABS", "sqrt": "SQRT", "exp": "EXP", "log": "LN",
	"floor": "FLOOR", "ceiling": "CEIL", "round": "ROUND",
	"sin": "SIN", "cos": "COS", "tan": "TAN",
	"asin": "ASIN", "acos": "ACOS", "atan": "ATAN", "atan2": "ATAN2",
	"sinh": "SINH", "cosh": "COSH", "tanh": "TANH",
	"pow": "POWER", "power": "POWER", "pi": "PI",
	"string": "TO_VARCHAR", "number": "TO_DOUBLE", "double": "TO_DOUBLE",
	"integer": "TO_NUMBER",
}

func (tr *translator) functionCall(df *snowpark.DataFrame, x *jsoniq.FunctionCall) (snowpark.Column, *snowpark.DataFrame, error) {
	if name, ok := scalarFunctions[x.Name]; ok {
		cols := make([]snowpark.Column, len(x.Args))
		cur := df
		for i, a := range x.Args {
			col, ndf, err := tr.expr(cur, a)
			if err != nil {
				return snowpark.Column{}, nil, err
			}
			cur = ndf
			cols[i] = col
		}
		return snowpark.Call(name, cols...), cur, nil
	}
	switch x.Name {
	case "not":
		if len(x.Args) != 1 {
			return snowpark.Column{}, nil, fmt.Errorf("core: not() takes one argument")
		}
		col, df2, err := tr.expr(df, x.Args[0])
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		// JSONiq's effective boolean value treats NULL as false, so NOT must
		// map NULL to TRUE rather than propagate it.
		return snowpark.Iff(col, snowpark.LitBool(false), snowpark.LitBool(true)), df2, nil
	case "boolean":
		if len(x.Args) != 1 {
			return snowpark.Column{}, nil, fmt.Errorf("core: boolean() takes one argument")
		}
		col, df2, err := tr.expr(df, x.Args[0])
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		return snowpark.Iff(col, snowpark.LitBool(true), snowpark.LitBool(false)), df2, nil
	case "concat":
		if len(x.Args) != 2 {
			return snowpark.Column{}, nil, fmt.Errorf("core: concat() takes two array arguments")
		}
		a, df2, err := tr.expr(df, x.Args[0])
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		b, df3, err := tr.expr(df2, x.Args[1])
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		return snowpark.ArrayCat(a, b), df3, nil
	case "size":
		if len(x.Args) != 1 {
			return snowpark.Column{}, nil, fmt.Errorf("core: size() takes one argument")
		}
		col, df2, err := tr.expr(df, x.Args[0])
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		return snowpark.ArraySize(col), df2, nil
	case "head":
		if len(x.Args) != 1 {
			return snowpark.Column{}, nil, fmt.Errorf("core: head() takes one argument")
		}
		col, df2, err := tr.expr(df, x.Args[0])
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		return snowpark.Get(col, snowpark.LitInt(0)), df2, nil
	case "count", "sum", "avg", "min", "max", "exists", "empty":
		return tr.aggregateCall(df, x)
	}
	return snowpark.Column{}, nil, fmt.Errorf("core: unknown function %s()", x.Name)
}

// aggregateCall translates aggregates over sequences. When the argument is a
// nested FLWOR, the re-aggregation of the nested query uses the native SQL
// aggregate directly; otherwise array-valued arguments are wrapped into a
// synthetic FLWOR so the same machinery applies. count()/exists()/empty()
// over plain arrays avoid the detour via ARRAY_SIZE.
func (tr *translator) aggregateCall(df *snowpark.DataFrame, x *jsoniq.FunctionCall) (snowpark.Column, *snowpark.DataFrame, error) {
	if len(x.Args) != 1 {
		return snowpark.Column{}, nil, fmt.Errorf("core: %s() takes one argument", x.Name)
	}
	arg := x.Args[0]
	kind := map[string]aggKind{
		"count": aggCount, "sum": aggSum, "avg": aggAvg,
		"min": aggMin, "max": aggMax, "exists": aggCount, "empty": aggCount,
	}[x.Name]

	if fl, ok := arg.(*jsoniq.FLWOR); ok {
		col, df2, err := tr.nestedQuery(df, fl, fl, kind)
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		return finishAggregate(x.Name, col), df2, nil
	}

	// Plain arguments: arrays count their members (ARRAY_SIZE), NULL is the
	// empty sequence, and any other item is a singleton.
	switch x.Name {
	case "count", "exists", "empty":
		col, df2, err := tr.expr(df, arg)
		if err != nil {
			return snowpark.Column{}, nil, err
		}
		n := snowpark.CaseWhen(col.IsNull(), snowpark.LitInt(0)).
			When(snowpark.Call("IS_ARRAY", col), snowpark.ArraySize(col)).
			Else(snowpark.LitInt(1))
		return finishAggregate(x.Name, n), df2, nil
	}

	// min/max/sum over a fixed-size array constructor compose scalar
	// functions directly instead of unboxing and re-aggregating.
	if ctor, ok := arg.(*jsoniq.ArrayCtor); ok && len(ctor.Items) > 0 {
		cols := make([]snowpark.Column, len(ctor.Items))
		cur := df
		for i, it := range ctor.Items {
			col, ndf, err := tr.expr(cur, it)
			if err != nil {
				return snowpark.Column{}, nil, err
			}
			cur = ndf
			cols[i] = col
		}
		switch x.Name {
		case "max":
			return snowpark.Greatest(cols...), cur, nil
		case "min":
			return snowpark.Least(cols...), cur, nil
		case "sum":
			acc := snowpark.Coalesce(cols[0], snowpark.LitInt(0))
			for _, c := range cols[1:] {
				acc = acc.Add(snowpark.Coalesce(c, snowpark.LitInt(0)))
			}
			return acc, cur, nil
		}
	}

	// sum/avg/min/max over an array: wrap into `for $#x in arg return $#x`.
	v := tr.fresh("agg")
	synth := &jsoniq.FLWOR{
		Clauses: []jsoniq.Clause{&jsoniq.ForClause{Var: v, In: arg}},
		Return:  &jsoniq.VarRef{Name: v},
	}
	col, df2, err := tr.nestedQuery(df, synth, arg, kind)
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	return finishAggregate(x.Name, col), df2, nil
}

// finishAggregate applies the final adjustment per JSONiq semantics:
// exists/empty compare the count, sum of the empty sequence is 0.
func finishAggregate(name string, col snowpark.Column) snowpark.Column {
	switch name {
	case "exists":
		return col.Gt(snowpark.LitInt(0))
	case "empty":
		return col.Eq(snowpark.LitInt(0))
	case "sum":
		return snowpark.Coalesce(col, snowpark.LitInt(0))
	}
	return col
}
