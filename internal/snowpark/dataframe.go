package snowpark

import (
	"context"
	"fmt"

	"jsonpark/internal/engine"
	"jsonpark/internal/sqlast"
)

// Session binds DataFrames to an engine instance, mirroring Snowpark's
// Session class.
type Session struct {
	eng *engine.Engine
}

// NewSession wraps an engine.
func NewSession(eng *engine.Engine) *Session { return &Session{eng: eng} }

// Engine exposes the underlying engine (for loading data in tests/tools).
func (s *Session) Engine() *engine.Engine { return s.eng }

// Table returns a DataFrame over a stored table. The session resolves the
// table's column names from the catalog, as Snowpark does.
func (s *Session) Table(name string) (*DataFrame, error) {
	t, err := s.eng.Catalog().Table(name)
	if err != nil {
		return nil, err
	}
	items := make([]sqlast.SelectItem, len(t.Columns))
	for i, c := range t.Columns {
		items[i] = sqlast.SelectItem{Expr: sqlast.C(c), Alias: c}
	}
	return &DataFrame{
		session: s,
		query:   &sqlast.Select{Items: items, From: &sqlast.TableRef{Name: name}},
		cols:    append([]string(nil), t.Columns...),
	}, nil
}

// DataFrame lazily encapsulates a fully executable SQL query (§II-D).
// Transformations return new DataFrames; nothing executes until Collect.
type DataFrame struct {
	session *Session
	query   sqlast.Query
	cols    []string
}

// Columns returns the output column names.
func (df *DataFrame) Columns() []string { return append([]string(nil), df.cols...) }

// SQL renders the single native SQL query this DataFrame represents.
func (df *DataFrame) SQL() string { return sqlast.Render(df.query) }

// Query exposes the underlying SQL AST.
func (df *DataFrame) Query() sqlast.Query { return df.query }

func (df *DataFrame) subquery() *sqlast.SubqueryRef {
	return &sqlast.SubqueryRef{Query: df.query}
}

func (df *DataFrame) derive(q sqlast.Query, cols []string) *DataFrame {
	return &DataFrame{session: df.session, query: q, cols: cols}
}

// outName derives the output name of a projected column.
func outName(c Column) (string, error) {
	if c.alias != "" {
		return c.alias, nil
	}
	if cr, ok := c.expr.(*sqlast.ColRef); ok {
		if cr.Table != "" {
			return cr.Table + "." + cr.Name, nil
		}
		return cr.Name, nil
	}
	return "", fmt.Errorf("snowpark: derived column %s requires an alias (use .As)", sqlast.RenderExpr(c.expr))
}

// Select projects the given columns, like DataFrame.select().
func (df *DataFrame) Select(cols ...Column) (*DataFrame, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("snowpark: Select requires at least one column")
	}
	items := make([]sqlast.SelectItem, len(cols))
	names := make([]string, len(cols))
	for i, c := range cols {
		name, err := outName(c)
		if err != nil {
			return nil, err
		}
		items[i] = sqlast.SelectItem{Expr: c.expr, Alias: name}
		names[i] = name
	}
	return df.derive(&sqlast.Select{Items: items, From: df.subquery()}, names), nil
}

// Where filters rows, like DataFrame.where()/filter().
func (df *DataFrame) Where(cond Column) *DataFrame {
	q := &sqlast.Select{
		Items: []sqlast.SelectItem{{Star: true}},
		From:  df.subquery(),
		Where: cond.expr,
	}
	return df.derive(q, df.cols)
}

// WithColumn appends (or replaces) one derived column, like
// DataFrame.withColumn(). Replacement re-projects explicitly.
func (df *DataFrame) WithColumn(name string, c Column) *DataFrame {
	for _, existing := range df.cols {
		if existing == name {
			// Re-project every column, substituting the replaced one.
			items := make([]sqlast.SelectItem, len(df.cols))
			for i, col := range df.cols {
				if col == name {
					items[i] = sqlast.SelectItem{Expr: c.expr, Alias: name}
				} else {
					items[i] = sqlast.SelectItem{Expr: colRefByName(col), Alias: col}
				}
			}
			return df.derive(&sqlast.Select{Items: items, From: df.subquery()}, df.cols)
		}
	}
	items := []sqlast.SelectItem{{Star: true}, {Expr: c.expr, Alias: name}}
	cols := append(append([]string(nil), df.cols...), name)
	return df.derive(&sqlast.Select{Items: items, From: df.subquery()}, cols)
}

// Drop removes columns, like DataFrame.drop().
func (df *DataFrame) Drop(names ...string) (*DataFrame, error) {
	dropped := make(map[string]bool, len(names))
	for _, n := range names {
		dropped[n] = true
	}
	var items []sqlast.SelectItem
	var cols []string
	for _, c := range df.cols {
		if dropped[c] {
			continue
		}
		items = append(items, sqlast.SelectItem{Expr: colRefByName(c), Alias: c})
		cols = append(cols, c)
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("snowpark: Drop would remove every column")
	}
	return df.derive(&sqlast.Select{Items: items, From: df.subquery()}, cols), nil
}

// colRefByName rebuilds a reference, restoring flatten qualification.
func colRefByName(name string) sqlast.Expr {
	for _, suffix := range []string{".VALUE", ".INDEX"} {
		if len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix {
			return &sqlast.ColRef{Table: name[:len(name)-len(suffix)], Name: suffix[1:]}
		}
	}
	return sqlast.C(name)
}

// Flatten applies LATERAL FLATTEN(INPUT => input [, OUTER => TRUE]) AS alias,
// the array-unboxing primitive (§IV-A). The result gains the pseudo-columns
// "<alias>.VALUE" and "<alias>.INDEX"; reference them with FlattenValue /
// FlattenIndex.
func (df *DataFrame) Flatten(input Column, alias string, outer bool) *DataFrame {
	q := &sqlast.Select{
		Items: []sqlast.SelectItem{{Star: true}},
		From: &sqlast.Flatten{
			Source: df.subquery(),
			Input:  input.expr,
			Outer:  outer,
			Alias:  alias,
		},
	}
	cols := append(append([]string(nil), df.cols...), alias+".VALUE", alias+".INDEX")
	return df.derive(q, cols)
}

// GroupBy starts a grouped aggregation, like DataFrame.groupBy(). Each key
// must be aliasable (plain column or aliased expression).
func (df *DataFrame) GroupBy(keys ...Column) *GroupedFrame {
	return &GroupedFrame{df: df, keys: keys}
}

// GroupedFrame is the intermediate of GroupBy awaiting Agg.
type GroupedFrame struct {
	df   *DataFrame
	keys []Column
}

// Agg finalizes the aggregation: output columns are the keys then the
// aggregates. Every aggregate must be aliased.
func (g *GroupedFrame) Agg(aggs ...Column) (*DataFrame, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("snowpark: Agg requires at least one aggregate")
	}
	var items []sqlast.SelectItem
	var groupBy []sqlast.Expr
	var names []string
	for _, k := range g.keys {
		name, err := outName(k)
		if err != nil {
			return nil, err
		}
		items = append(items, sqlast.SelectItem{Expr: k.expr, Alias: name})
		groupBy = append(groupBy, k.expr)
		names = append(names, name)
	}
	for _, a := range aggs {
		name, err := outName(a)
		if err != nil {
			return nil, err
		}
		items = append(items, sqlast.SelectItem{Expr: a.expr, Alias: name})
		names = append(names, name)
	}
	q := &sqlast.Select{Items: items, From: g.df.subquery(), GroupBy: groupBy}
	return g.df.derive(q, names), nil
}

// Agg performs a global (ungrouped) aggregation.
func (df *DataFrame) Agg(aggs ...Column) (*DataFrame, error) {
	return df.GroupBy().Agg(aggs...)
}

// Join kinds.
const (
	JoinInner     = "INNER"
	JoinLeftOuter = "LEFT OUTER"
	JoinCross     = "CROSS"
)

// Join combines two DataFrames, like DataFrame.join(). For JoinCross, on
// may be the zero Column.
func (df *DataFrame) Join(other *DataFrame, on Column, kind string) (*DataFrame, error) {
	for _, c := range other.cols {
		for _, l := range df.cols {
			if c == l {
				return nil, fmt.Errorf("snowpark: join sides share column name %q; rename before joining", c)
			}
		}
	}
	j := &sqlast.Join{Kind: kind, Left: df.subquery(), Right: other.subquery()}
	if on.expr != nil {
		if kind == JoinCross {
			return nil, fmt.Errorf("snowpark: CROSS join takes no ON condition")
		}
		j.On = on.expr
	} else if kind != JoinCross {
		return nil, fmt.Errorf("snowpark: %s join requires an ON condition", kind)
	}
	q := &sqlast.Select{Items: []sqlast.SelectItem{{Star: true}}, From: j}
	cols := append(append([]string(nil), df.cols...), other.cols...)
	return df.derive(q, cols), nil
}

// CrossJoin is Join with JoinCross and no condition.
func (df *DataFrame) CrossJoin(other *DataFrame) (*DataFrame, error) {
	return df.Join(other, Column{}, JoinCross)
}

// UnionAll concatenates two DataFrames positionally.
func (df *DataFrame) UnionAll(other *DataFrame) (*DataFrame, error) {
	if len(df.cols) != len(other.cols) {
		return nil, fmt.Errorf("snowpark: UNION ALL arity mismatch (%d vs %d)", len(df.cols), len(other.cols))
	}
	return df.derive(&sqlast.SetOp{Op: "UNION ALL", Left: df.query, Right: other.query}, df.cols), nil
}

// Sort orders rows, like DataFrame.sort().
func (df *DataFrame) Sort(keys ...OrderSpec) *DataFrame {
	q := &sqlast.Select{Items: []sqlast.SelectItem{{Star: true}}, From: df.subquery()}
	for _, k := range keys {
		q.OrderBy = append(q.OrderBy, sqlast.OrderItem{Expr: k.col.expr, Desc: k.desc})
	}
	return df.derive(q, df.cols)
}

// Limit truncates the result.
func (df *DataFrame) Limit(n int64) *DataFrame {
	q := &sqlast.Select{Items: []sqlast.SelectItem{{Star: true}}, From: df.subquery(), Limit: &n}
	return df.derive(q, df.cols)
}

// Collect triggers execution of the composed SQL query in the engine and
// returns the full result with metrics.
func (df *DataFrame) Collect() (*engine.Result, error) {
	res, _, err := df.CollectOpts(context.Background(), engine.PrepareOptions{})
	return res, err
}

// CollectOpts is Collect under a cancellation context and the engine's
// prepare options: opts.Span (may be nil) receives the engine's
// compile-stage children plus an engine.execute span, and opts.Analyze
// enables per-operator metering, returning the annotated plan tree alongside
// the result (nil when Analyze is false). A cancel or deadline aborts
// execution promptly with an error satisfying errors.Is(err,
// context.Canceled) / context.DeadlineExceeded.
func (df *DataFrame) CollectOpts(ctx context.Context, opts engine.PrepareOptions) (*engine.Result, *engine.PlanStats, error) {
	p, err := df.session.eng.PrepareOpts(df.SQL(), opts)
	if err != nil {
		return nil, nil, err
	}
	esp := opts.Span.Child("engine.execute")
	res, err := p.RunCtx(ctx)
	esp.End()
	if err != nil {
		return nil, nil, err
	}
	return res, p.PlanStats(), nil
}
