package core

import (
	"fmt"

	"jsonpark/internal/jsoniq"
	"jsonpark/internal/snowpark"
	"jsonpark/internal/sqlast"
)

// aggKind selects how a nested query's returned items re-aggregate: into an
// array (the default JSONiq semantics of §IV-B), or directly through a SQL
// aggregate when the nested query feeds count/sum/avg/min/max/exists/empty.
type aggKind int

const (
	aggArray aggKind = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

// nestedQuery translates a FLWOR in expression position. The incoming
// DataFrame is passed into the nested query (§III-B2, Listing 3) and an
// updated DataFrame carrying the re-aggregated result column, and the
// incoming columns still live after node (the FLWOR, or the argument a
// synthetic f iterates), is returned. nestedKeep and nestedJoin translate
// f's clauses with its pending entry at advanced clause by clause and
// return the result column's name.
func (tr *translator) nestedQuery(df *snowpark.DataFrame, f *jsoniq.FLWOR, node jsoniq.Expr, kind aggKind) (snowpark.Column, *snowpark.DataFrame, error) {
	if df == nil {
		return snowpark.Column{}, nil, fmt.Errorf("core: nested query without an enclosing for clause")
	}
	live := tr.liveColumns(df.Columns(), node)
	at := tr.enter(node, f.Clauses, f.Return)
	nested := tr.nestedKeep
	if tr.opts.Strategy == StrategyJoin {
		nested = tr.nestedJoin
	}
	res, out, err := nested(df, f, at, live, kind)
	tr.leave()
	if err != nil {
		return snowpark.Column{}, nil, err
	}
	// The enclosing clause reads the result until it is done.
	held := &tr.pending[at-1].held
	*held = append(*held, res)
	return snowpark.Col(res), out, nil
}

// nestedKeep implements the flag column approach (§IV-C1): a KEEP column
// marks rows still eligible for the return clause; unboxing uses
// OUTER => TRUE flatten so objects with empty arrays survive; failing
// where predicates clear the flag instead of removing rows. Re-aggregation
// groups by an injected row ID, aggregating the guarded return expression
// and ANY_VALUE of each outer column in live.
func (tr *translator) nestedKeep(df *snowpark.DataFrame, f *jsoniq.FLWOR, at int, live []string, kind aggKind) (string, *snowpark.DataFrame, error) {
	rid := tr.fresh("rid")
	keep := tr.fresh("keep")
	tr.pending[at].aux = append(tr.pending[at].aux, rid, keep)
	df = df.WithColumn(rid, snowpark.Seq8())
	df = df.WithColumn(keep, snowpark.LitBool(true))

	// Each object's "representative" row — the one whose every flatten index
	// so far is 0 or NULL — always survives where filters, implementing the
	// §IV-C1 optimization of removing all failing rows bar one per object.
	representative := snowpark.LitBool(true)

	var orderSpecs []snowpark.OrderSpec
	for i, c := range f.Clauses {
		tr.advance(at, f.Clauses[i:], f.Return)
		switch cl := c.(type) {
		case *jsoniq.ForClause:
			if _, ok := cl.In.(*jsoniq.Collection); ok {
				return "", nil, fmt.Errorf("core: nested queries over collections are not supported; hoist the collection into an outer for clause")
			}
			col, ndf, err := tr.expr(df, cl.In)
			if err != nil {
				return "", nil, err
			}
			alias := tr.fresh("f")
			tr.pending[at].aux = append(tr.pending[at].aux, alias+".INDEX") // representative
			df = ndf.Flatten(col, alias, true)
			df = df.WithColumn(cl.Var, snowpark.FlattenValue(alias))
			if cl.PosVar != "" {
				df = df.WithColumn(cl.PosVar, snowpark.FlattenIndex(alias).Add(snowpark.LitInt(1)))
			}
			if df, err = tr.setKeep(df, keep, snowpark.Col(keep).And(snowpark.FlattenValue(alias).IsNotNull())); err != nil {
				return "", nil, err
			}
			representative = representative.And(
				snowpark.FlattenIndex(alias).IsNull().
					Or(snowpark.FlattenIndex(alias).Eq(snowpark.LitInt(0))))
		case *jsoniq.LetClause:
			col, ndf, err := tr.expr(df, cl.Expr)
			if err != nil {
				return "", nil, err
			}
			df = ndf.WithColumn(cl.Var, col)
		case *jsoniq.WhereClause:
			col, ndf, err := tr.expr(df, cl.Cond)
			if err != nil {
				return "", nil, err
			}
			pass := snowpark.Iff(col, snowpark.LitBool(true), snowpark.LitBool(false))
			if df, err = tr.setKeep(ndf, keep, snowpark.Col(keep).And(pass)); err != nil {
				return "", nil, err
			}
			// Failing rows are really removed, except each object's
			// representative, which preserves the row ID for re-aggregation.
			df = df.Where(snowpark.Col(keep).Or(representative))
		case *jsoniq.OrderByClause:
			for _, k := range cl.Keys {
				col, ndf, err := tr.expr(df, k.Expr)
				if err != nil {
					return "", nil, err
				}
				name := tr.fresh("ord")
				tr.pending[at].aux = append(tr.pending[at].aux, name)
				df = ndf.WithColumn(name, col)
				if k.Descending {
					orderSpecs = append(orderSpecs, snowpark.Desc(snowpark.Col(name)))
				} else {
					orderSpecs = append(orderSpecs, snowpark.Asc(snowpark.Col(name)))
				}
			}
		default:
			return "", nil, fmt.Errorf("core: %s clauses are not supported inside nested queries", c.Kind())
		}
	}

	tr.advance(at, nil, f.Return)
	retCol, df, err := tr.expr(df, f.Return)
	if err != nil {
		return "", nil, err
	}
	// Rows with KEEP = false contribute NULL, which the aggregates skip.
	guarded := snowpark.CaseWhen(snowpark.Col(keep), retCol).End()

	res := tr.fresh("nq")
	aggCol, err := nestedAggregate(kind, guarded, snowpark.CountIf(snowpark.Col(keep)), orderSpecs)
	if err != nil {
		return "", nil, err
	}
	aggs := make([]snowpark.Column, 0, len(live)+1)
	for _, c := range live {
		aggs = append(aggs, snowpark.AnyValue(colByName(c)).As(c))
	}
	aggs = append(aggs, aggCol.As(res))
	out, err := df.GroupBy(snowpark.Col(rid)).Agg(aggs...)
	if err != nil {
		return "", nil, err
	}
	return res, out, nil
}

// setKeep stores kept as the KEEP column keep of df. Like WithColumn it
// lists df's columns around the new flag, but only those the translation
// still reads (live) or kept reads: a column read by neither is dead, and
// dropping it changes no reference count the engine's project merging
// decides by.
func (tr *translator) setKeep(df *snowpark.DataFrame, keep string, kept snowpark.Column) (*snowpark.DataFrame, error) {
	live := tr.live(nil)
	sqlast.Walk(kept.Expr(), func(e sqlast.Expr) bool {
		if cr, ok := e.(*sqlast.ColRef); ok {
			live[cr.QualifiedName()] = true
		}
		return true
	})
	var cols []snowpark.Column
	for _, c := range df.Columns() {
		switch {
		case c == keep:
			cols = append(cols, kept.As(keep))
		case live[c]:
			cols = append(cols, colByName(c).As(c))
		}
	}
	return df.Select(cols...)
}

// nestedJoin implements the JOIN-based approach (§IV-C2): the row-ID-stamped
// DataFrame is copied with its columns in live; the nested query freely
// eliminates rows (inner flatten, real where filters); its per-row-ID
// aggregate is joined back to the copy with a left outer join, and missing
// results are defaulted.
func (tr *translator) nestedJoin(df *snowpark.DataFrame, f *jsoniq.FLWOR, at int, live []string, kind aggKind) (string, *snowpark.DataFrame, error) {
	rid := tr.fresh("rid")
	tr.pending[at].aux = append(tr.pending[at].aux, rid)
	inner := df.WithColumn(rid, snowpark.Seq8())
	keepCols := make([]snowpark.Column, 0, len(live)+1)
	for _, c := range append(live, rid) {
		keepCols = append(keepCols, colByName(c).As(c))
	}
	base, err := inner.Select(keepCols...)
	if err != nil {
		return "", nil, err
	}

	var orderSpecs []snowpark.OrderSpec
	for i, c := range f.Clauses {
		tr.advance(at, f.Clauses[i:], f.Return)
		switch cl := c.(type) {
		case *jsoniq.ForClause:
			if _, ok := cl.In.(*jsoniq.Collection); ok {
				return "", nil, fmt.Errorf("core: nested queries over collections are not supported; hoist the collection into an outer for clause")
			}
			col, ndf, err := tr.expr(inner, cl.In)
			if err != nil {
				return "", nil, err
			}
			alias := tr.fresh("f")
			inner = ndf.Flatten(col, alias, cl.AllowEmpty)
			inner = inner.WithColumn(cl.Var, snowpark.FlattenValue(alias))
			if cl.PosVar != "" {
				inner = inner.WithColumn(cl.PosVar, snowpark.FlattenIndex(alias).Add(snowpark.LitInt(1)))
			}
		case *jsoniq.LetClause:
			col, ndf, err := tr.expr(inner, cl.Expr)
			if err != nil {
				return "", nil, err
			}
			inner = ndf.WithColumn(cl.Var, col)
		case *jsoniq.WhereClause:
			col, ndf, err := tr.expr(inner, cl.Cond)
			if err != nil {
				return "", nil, err
			}
			inner = ndf.Where(col)
		case *jsoniq.OrderByClause:
			for _, k := range cl.Keys {
				col, ndf, err := tr.expr(inner, k.Expr)
				if err != nil {
					return "", nil, err
				}
				name := tr.fresh("ord")
				tr.pending[at].aux = append(tr.pending[at].aux, name)
				inner = ndf.WithColumn(name, col)
				if k.Descending {
					orderSpecs = append(orderSpecs, snowpark.Desc(snowpark.Col(name)))
				} else {
					orderSpecs = append(orderSpecs, snowpark.Asc(snowpark.Col(name)))
				}
			}
		default:
			return "", nil, fmt.Errorf("core: %s clauses are not supported inside nested queries", c.Kind())
		}
	}

	tr.advance(at, nil, f.Return)
	retCol, inner, err := tr.expr(inner, f.Return)
	if err != nil {
		return "", nil, err
	}
	res := tr.fresh("nq")
	aggCol, err := nestedAggregate(kind, retCol, snowpark.CountStar(), orderSpecs)
	if err != nil {
		return "", nil, err
	}
	grouped, err := inner.GroupBy(snowpark.Col(rid)).Agg(aggCol.As(res))
	if err != nil {
		return "", nil, err
	}
	ridR := tr.fresh("ridr")
	sel, err := grouped.Select(snowpark.Col(rid).As(ridR), snowpark.Col(res).As(res))
	if err != nil {
		return "", nil, err
	}
	joined, err := base.Join(sel, snowpark.Col(rid).Eq(snowpark.Col(ridR)), snowpark.JoinLeftOuter)
	if err != nil {
		return "", nil, err
	}
	// Objects eliminated inside the nested query resurface with NULL; apply
	// the empty-sequence default per aggregate kind.
	var filled snowpark.Column
	switch kind {
	case aggArray:
		filled = snowpark.Coalesce(snowpark.Col(res), snowpark.ArrayConstruct())
	case aggCount:
		filled = snowpark.Coalesce(snowpark.Col(res), snowpark.LitInt(0))
	default:
		filled = snowpark.Col(res)
	}
	outCols := append(keepCols[:len(live):len(live)], filled.As(res))
	out, err := joined.Select(outCols...)
	return res, out, err
}

// nestedAggregate builds the re-aggregation column. countCol is the
// strategy-specific row counter (COUNT_IF(keep) vs COUNT(*)).
func nestedAggregate(kind aggKind, value, countCol snowpark.Column, orderSpecs []snowpark.OrderSpec) (snowpark.Column, error) {
	switch kind {
	case aggArray:
		if len(orderSpecs) > 0 {
			return snowpark.ArrayAggOrdered(value, orderSpecs...), nil
		}
		return snowpark.ArrayAgg(value), nil
	case aggCount:
		return countCol, nil
	case aggSum:
		return snowpark.Sum(value), nil
	case aggAvg:
		return snowpark.Avg(value), nil
	case aggMin:
		return snowpark.Min(value), nil
	case aggMax:
		return snowpark.Max(value), nil
	}
	return snowpark.Column{}, fmt.Errorf("core: unknown aggregate kind %d", kind)
}
