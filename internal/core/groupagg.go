package core

import "jsonpark/internal/jsoniq"

// groupAggRewriter performs aggregate detection after a group by clause:
// occurrences of count/sum/avg/min/max applied to a non-grouping variable
// (or a path rooted at one) are replaced by synthetic variables that the
// translation backs with native SQL aggregates, instead of materializing
// ARRAY_AGG arrays and re-aggregating them client-side.
type groupAggRewriter struct {
	tr          *translator
	nonGrouping map[string]bool
	specs       []groupAggSpec
}

// groupAggSpec is one detected aggregate: the SQL aggregate name, the
// per-tuple argument expression, and the synthetic column name.
type groupAggSpec struct {
	agg  string
	arg  jsoniq.Expr // nil for COUNT(*)
	name string
}

var jsoniqAggregates = map[string]string{
	"count": "COUNT", "sum": "SUM", "avg": "AVG", "min": "MIN", "max": "MAX",
}

// rootVar returns the variable a pure path expression is rooted at, if any.
func rootVar(e jsoniq.Expr) (string, bool) {
	for {
		switch x := e.(type) {
		case *jsoniq.VarRef:
			return x.Name, true
		case *jsoniq.FieldAccess:
			e = x.Base
		case *jsoniq.ArrayUnbox:
			e = x.Base
		default:
			return "", false
		}
	}
}

// rewrite replaces each aggregate call over a non-grouping variable in e by
// the synthetic variable of its aggregate. No clause after the group by
// rebinds a grouped name (RenameShadowed), so every such call reads the
// grouped binding.
func (rw *groupAggRewriter) rewrite(e jsoniq.Expr) jsoniq.Expr {
	if x, ok := e.(*jsoniq.FunctionCall); ok {
		if name := rw.detect(x); name != "" {
			return &jsoniq.VarRef{Name: name}
		}
	}
	return jsoniq.MapChildren(e, rw.rewrite)
}

// groupedCall reports whether call is an aggregate a group by answers
// natively: count/sum/avg/min/max over a path rooted at a variable grouped
// holds for that reads no field after []. It returns the SQL aggregate and
// the argument it aggregates per tuple, nil for count over a variable
// nonNull marks (COUNT(*), which keeps the scan prunable instead of forcing
// the variable's column).
func groupedCall(call *jsoniq.FunctionCall, grouped func(string) bool, nonNull map[string]bool) (agg string, arg jsoniq.Expr, ok bool) {
	agg, ok = jsoniqAggregates[call.Name]
	if !ok || len(call.Args) != 1 {
		return "", nil, false
	}
	if v, rooted := rootVar(call.Args[0]); !rooted || !grouped(v) {
		return "", nil, false
	}
	if pathUnbox(call.Args[0]) != nil {
		return "", nil, false // a nested query (unboxedPath)
	}
	if vr, plain := call.Args[0].(*jsoniq.VarRef); plain && agg == "COUNT" && nonNull[vr.Name] {
		return agg, nil, true
	}
	return agg, call.Args[0], true
}

// detect returns the synthetic variable of call when it is an aggregate over
// a path rooted at a non-grouping variable, registering the aggregate
// on first sight; "" otherwise.
func (rw *groupAggRewriter) detect(call *jsoniq.FunctionCall) string {
	agg, arg, ok := groupedCall(call, func(v string) bool { return rw.nonGrouping[v] }, rw.tr.nonNull)
	if !ok {
		return ""
	}
	spec := groupAggSpec{agg: agg, arg: arg}
	// Identical aggregates (e.g. the same sum in both order by and return)
	// share one output column.
	key := spec.agg
	if spec.arg != nil {
		key += " " + jsoniq.Format(spec.arg)
	}
	for _, existing := range rw.specs {
		ek := existing.agg
		if existing.arg != nil {
			ek += " " + jsoniq.Format(existing.arg)
		}
		if ek == key {
			return existing.name
		}
	}
	spec.name = rw.tr.fresh("gagg")
	rw.specs = append(rw.specs, spec)
	return spec.name
}
