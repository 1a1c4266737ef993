package core

import (
	"fmt"
	"slices"
	"strings"

	"jsonpark/internal/jsoniq"
	"jsonpark/internal/snowpark"
)

// clauseContext threads the DataFrame through the outermost FLWOR's clause
// chain (§III-B2): each clause iterator consumes the DataFrame of the
// preceding clause (left child) and the Column of its subexpression (right
// child), producing the next DataFrame.
type clauseContext struct {
	tr      *translator
	df      *snowpark.DataFrame
	vars    []string        // JSONiq variables currently in scope (column names)
	nonNull map[string]bool // variables that can never be NULL
}

func (ctx *clauseContext) bind(name string) {
	for _, v := range ctx.vars {
		if v == name {
			return
		}
	}
	ctx.vars = append(ctx.vars, name)
}

func (ctx *clauseContext) markNonNull(name string) {
	if ctx.nonNull == nil {
		ctx.nonNull = make(map[string]bool)
	}
	ctx.nonNull[name] = true
}

func (ctx *clauseContext) apply(c jsoniq.Clause) error {
	switch cl := c.(type) {
	case *jsoniq.ForClause:
		return ctx.applyFor(cl)
	case *jsoniq.LetClause:
		col, df, err := ctx.tr.expr(ctx.df, cl.Expr)
		if err != nil {
			return err
		}
		ctx.df = df.WithColumn(cl.Var, col)
		ctx.bind(cl.Var)
		return nil
	case *jsoniq.WhereClause:
		col, df, err := ctx.tr.expr(ctx.df, cl.Cond)
		if err != nil {
			return err
		}
		ctx.df = df.Where(col)
		return nil
	case *jsoniq.OrderByClause:
		specs := make([]snowpark.OrderSpec, 0, len(cl.Keys))
		df := ctx.df
		for _, k := range cl.Keys {
			var col snowpark.Column
			var err error
			col, df, err = ctx.tr.expr(df, k.Expr)
			if err != nil {
				return err
			}
			if k.Descending {
				specs = append(specs, snowpark.Desc(col))
			} else {
				specs = append(specs, snowpark.Asc(col))
			}
		}
		ctx.df = df.Sort(specs...)
		return nil
	case *jsoniq.CountClause:
		if ctx.df == nil {
			return fmt.Errorf("core: count clause before any for clause")
		}
		// The engine's projection preserves row order, so a sequence column
		// yields 1-based positions of the current tuple stream.
		ctx.df = ctx.df.WithColumn(cl.Var, snowpark.Seq8().Add(snowpark.LitInt(1)))
		ctx.bind(cl.Var)
		return nil
	}
	return fmt.Errorf("core: unsupported clause %T", c)
}

func (ctx *clauseContext) applyFor(cl *jsoniq.ForClause) error {
	if coll, ok := cl.In.(*jsoniq.Collection); ok {
		objDF, err := ctx.tr.collectionFrame(coll.Name, cl.Var)
		if err != nil {
			return err
		}
		if ctx.df == nil {
			ctx.df = objDF
		} else {
			// Successive for clauses over different collections express
			// joins (§II-E); the optimizer turns the cross join plus a
			// where-equality into a hash equi-join.
			joined, err := ctx.df.CrossJoin(objDF)
			if err != nil {
				return err
			}
			ctx.df = joined
		}
		ctx.bind(cl.Var)
		ctx.markNonNull(cl.Var)
		if cl.PosVar != "" {
			ctx.df = ctx.df.WithColumn(cl.PosVar, snowpark.Seq8().Add(snowpark.LitInt(1)))
			ctx.bind(cl.PosVar)
			ctx.markNonNull(cl.PosVar)
		}
		return nil
	}
	if ctx.df == nil {
		return fmt.Errorf("core: the first for clause must read a collection")
	}
	col, df, err := ctx.tr.expr(ctx.df, cl.In)
	if err != nil {
		return err
	}
	alias := ctx.tr.fresh("f")
	ctx.df = df.Flatten(col, alias, cl.AllowEmpty)
	ctx.df = ctx.df.WithColumn(cl.Var, snowpark.FlattenValue(alias))
	ctx.bind(cl.Var)
	if !cl.AllowEmpty {
		ctx.markNonNull(cl.Var)
	}
	if cl.PosVar != "" {
		ctx.df = ctx.df.WithColumn(cl.PosVar,
			snowpark.FlattenIndex(alias).Add(snowpark.LitInt(1)))
		ctx.bind(cl.PosVar)
	}
	return nil
}

// collectionFrame wraps a stored table as a DataFrame binding the variable:
// one column holds each row as an object (for whole-item uses such as
// `return $e`), and one passthrough column per table column ("e.Jet")
// serves direct field access prunably. The engine's
// GET(OBJECT_CONSTRUCT(...)) folding covers the remaining object uses.
func (tr *translator) collectionFrame(table, varName string) (*snowpark.DataFrame, error) {
	df, err := tr.sess.Table(table)
	if err != nil {
		return nil, err
	}
	cols := df.Columns()
	items := make([]snowpark.Column, 0, len(cols)+1)
	pairs := make([]any, 0, 2*len(cols))
	for _, c := range cols {
		items = append(items, snowpark.Col(c).As(varName+"."+c))
		pairs = append(pairs, c, snowpark.Col(c))
	}
	items = append(items, snowpark.ObjectConstruct(pairs...).As(varName))
	if tr.tableVars == nil {
		tr.tableVars = make(map[string][]string)
	}
	tr.tableVars[varName] = cols
	return df.Select(items...)
}

// applyGroupBy translates a group by clause. Grouping keys become columns;
// aggregate calls over non-grouping variables in the remaining clauses and
// the return expression are detected and mapped to native SQL aggregates;
// any other referenced non-grouping variable is re-aggregated with
// ARRAY_AGG, per JSONiq's sequence semantics.
func (ctx *clauseContext) applyGroupBy(gb *jsoniq.GroupByClause, rest []jsoniq.Clause, ret jsoniq.Expr) ([]jsoniq.Clause, jsoniq.Expr, error) {
	if ctx.df == nil {
		return nil, nil, fmt.Errorf("core: group by before any for clause")
	}
	tr := ctx.tr
	df := ctx.df

	keyCols := make([]snowpark.Column, 0, len(gb.Keys))
	grouped := make(map[string]bool, len(gb.Keys))
	for _, k := range gb.Keys {
		grouped[k.Var] = true
		if k.Expr == nil {
			keyCols = append(keyCols, snowpark.Col(k.Var).As(k.Var))
			continue
		}
		col, ndf, err := tr.expr(df, k.Expr)
		if err != nil {
			return nil, nil, err
		}
		df = ndf
		keyCols = append(keyCols, col.As(k.Var))
	}

	nonGrouping := make(map[string]bool)
	for _, v := range ctx.vars {
		if !grouped[v] {
			nonGrouping[v] = true
		}
	}

	// Aggregate detection: rewrite count($v...)/sum/avg/min/max into
	// synthetic variables backed by SQL aggregates.
	rw := &groupAggRewriter{tr: tr, nonGrouping: nonGrouping, nonNull: ctx.nonNull}
	newRest := make([]jsoniq.Clause, len(rest))
	for i, c := range rest {
		nc, err := rw.rewriteClause(c)
		if err != nil {
			return nil, nil, err
		}
		newRest[i] = nc
	}
	newRet, err := rw.rewriteExpr(ret)
	if err != nil {
		return nil, nil, err
	}

	var aggCols []snowpark.Column
	for _, spec := range rw.specs {
		if spec.star {
			aggCols = append(aggCols, snowpark.CountStar().As(spec.name))
			continue
		}
		argCol, ndf, err := tr.expr(df, spec.arg)
		if err != nil {
			return nil, nil, err
		}
		df = ndf
		col, err := applyGlobalAggregate(spec.agg, argCol)
		if err != nil {
			return nil, nil, err
		}
		aggCols = append(aggCols, col.As(spec.name))
	}

	// Non-grouping variables still referenced after the rewrite become
	// arrays of their per-tuple values.
	var arrayVars []string
	for v := range nonGrouping {
		used := false
		for _, c := range newRest {
			if jsoniq.ClauseUsesVar(c, v) {
				used = true
				break
			}
		}
		if !used {
			used = jsoniq.ExprUsesVar(newRet, v)
		}
		if used {
			arrayVars = append(arrayVars, v)
		}
	}
	// Deterministic ordering for stable SQL output.
	slices.Sort(arrayVars)
	for _, v := range arrayVars {
		aggCols = append(aggCols, snowpark.ArrayAgg(colByName(v)).As(v))
	}
	if len(aggCols) == 0 {
		aggCols = append(aggCols, snowpark.CountStar().As(tr.fresh("cnt")))
	}

	out, err := df.GroupBy(keyCols...).Agg(aggCols...)
	if err != nil {
		return nil, nil, err
	}
	ctx.df = out
	ctx.vars = nil
	for _, k := range gb.Keys {
		ctx.bind(k.Var)
	}
	for _, v := range arrayVars {
		ctx.bind(v)
		// Grouped variables now hold arrays; their passthrough columns are
		// gone, so field access must fall back to GET semantics.
		delete(tr.tableVars, v)
	}
	for v := range nonGrouping {
		delete(tr.tableVars, v)
	}
	return newRest, newRet, nil
}

// colByName rebuilds a column reference, restoring the qualification of
// flatten pseudo-columns like "f3.VALUE".
func colByName(name string) snowpark.Column {
	if strings.HasSuffix(name, ".VALUE") {
		return snowpark.FlattenValue(strings.TrimSuffix(name, ".VALUE"))
	}
	if strings.HasSuffix(name, ".INDEX") {
		return snowpark.FlattenIndex(strings.TrimSuffix(name, ".INDEX"))
	}
	return snowpark.Col(name)
}
