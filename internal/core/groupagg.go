package core

import (
	"maps"

	"jsonpark/internal/jsoniq"
)

// groupAggRewriter performs aggregate detection after a group by clause:
// occurrences of count/sum/avg/min/max applied to a non-grouping variable
// (or a path rooted at one) are replaced by synthetic variables that the
// translation backs with native SQL aggregates, instead of materializing
// ARRAY_AGG arrays and re-aggregating them client-side.
type groupAggRewriter struct {
	tr          *translator
	nonGrouping map[string]bool
	// nonNull marks variables that can never be NULL (for-bound without
	// `allowing empty`); count() over them becomes COUNT(*), which keeps
	// the scan prunable instead of forcing the full object column.
	nonNull map[string]bool
	specs   []groupAggSpec
}

// groupAggSpec is one detected aggregate: the SQL aggregate name, the
// per-tuple argument expression, and the synthetic column name.
type groupAggSpec struct {
	agg  string
	arg  jsoniq.Expr // nil when star is set
	star bool        // COUNT(*)
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

// rewrite replaces each aggregate call over a non-grouping variable in e
// that is still free — not rebound by a clause of a FLWOR around the call
// (jsoniq.MapBound) — by the synthetic variable of its aggregate.
func (rw *groupAggRewriter) rewrite(e jsoniq.Expr) jsoniq.Expr {
	switch x := e.(type) {
	case *jsoniq.FunctionCall:
		if name := rw.detect(x); name != "" {
			return &jsoniq.VarRef{Name: name}
		}
	case *jsoniq.FLWOR:
		// Nested FLWORs see the grouped bindings until one of their clauses
		// rebinds the name; aggregate calls after that read the new binding.
		outer, shadowed := rw.nonGrouping, false
		cs := make([]jsoniq.Clause, len(x.Clauses))
		for i, c := range x.Clauses {
			cs[i] = jsoniq.MapClause(c, rw.rewrite)
			jsoniq.MapBound(c, func(v string) string {
				if rw.nonGrouping[v] {
					if !shadowed {
						rw.nonGrouping, shadowed = maps.Clone(outer), true
					}
					delete(rw.nonGrouping, v)
				}
				return v
			})
		}
		out := *x
		out.Clauses, out.Return = cs, rw.rewrite(x.Return)
		rw.nonGrouping = outer
		return &out
	}
	return jsoniq.MapChildren(e, rw.rewrite)
}

// detect returns the synthetic variable of call when it is an aggregate over
// a path rooted at a free non-grouping variable, registering the aggregate
// on first sight; "" otherwise.
func (rw *groupAggRewriter) detect(call *jsoniq.FunctionCall) string {
	agg, ok := jsoniqAggregates[call.Name]
	if !ok || len(call.Args) != 1 {
		return ""
	}
	if v, rooted := rootVar(call.Args[0]); !rooted || !rw.nonGrouping[v] {
		return ""
	}
	spec := groupAggSpec{agg: agg, arg: call.Args[0]}
	if agg == "COUNT" {
		if vr, plain := call.Args[0].(*jsoniq.VarRef); plain && rw.nonNull[vr.Name] {
			spec.arg = nil
			spec.star = true
		}
	}
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
