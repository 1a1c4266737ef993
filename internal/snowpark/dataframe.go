package snowpark

import (
	"fmt"
	"slices"

	"jsonpark/internal/engine"
	"jsonpark/internal/sqlast"
	"jsonpark/internal/storage"
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
	q := &sqlast.Select{Items: items, From: &sqlast.TableRef{Name: name}}
	return &DataFrame{
		session: s,
		query:   q,
		open:    q,
		cols:    append([]string(nil), t.Columns...),
		tables:  []*storage.Table{t},
	}, nil
}

// DataFrame lazily encapsulates a fully executable SQL query (§II-D).
// Transformations return new DataFrames; nothing executes until Collect.
//
// Like Snowpark's select flattening, Select, Where and WithColumn extend the
// frame's own SELECT instead of wrapping it in a new one when that SELECT
// is a plain projection (open) and the new expression reads none of its
// definitions other than renames and literals, which are substituted: a
// Where then reads only the SELECT's input, and never joins a SELECT that
// defines SEQ8(), whose row numbers it would change; a WithColumn that
// replaces a column may also read that column's old definition once, which
// it replaces in place. Anything else wraps, so the engine's project
// merging sees what it would have produced from the wrapped form.
type DataFrame struct {
	session *Session
	query   sqlast.Query
	// open is query when it is a SELECT that Select, Where and WithColumn
	// may extend: no GROUP BY, aggregate, ORDER BY, LIMIT or set operation.
	open *sqlast.Select
	cols []string
	// tables are the table instances Session.Table resolved for this frame
	// and its inputs, each once.
	tables []*storage.Table
	// sql is the rendered query, kept by Rendered; "" until then.
	sql string
}

// Columns returns the output column names.
func (df *DataFrame) Columns() []string { return append([]string(nil), df.cols...) }

// Tables returns the table instances the frame reads: the catalog's tables
// at the time Session.Table resolved their names.
func (df *DataFrame) Tables() []*storage.Table { return slices.Clone(df.tables) }

// SQL renders the single native SQL query this DataFrame represents.
func (df *DataFrame) SQL() string {
	if df.sql != "" {
		return df.sql
	}
	return sqlast.Render(df.query)
}

// Rendered returns the same query with its SQL rendered once and kept, so
// SQL and Collect on the result never render it again.
func (df *DataFrame) Rendered() *DataFrame {
	if df.sql != "" {
		return df
	}
	out := *df
	out.sql = sqlast.Render(df.query)
	return &out
}

// Query exposes the underlying SQL AST.
func (df *DataFrame) Query() sqlast.Query { return df.query }

func (df *DataFrame) subquery() *sqlast.SubqueryRef {
	return &sqlast.SubqueryRef{Query: df.query}
}

func (df *DataFrame) derive(q sqlast.Query, cols []string) *DataFrame {
	return &DataFrame{session: df.session, query: q, cols: cols, tables: df.tables}
}

// deriveOpen is derive for a plain projection, which later calls may
// extend.
func (df *DataFrame) deriveOpen(q *sqlast.Select, cols []string) *DataFrame {
	out := df.derive(q, cols)
	out.open = q
	return out
}

// deriveBoth is derive for an operator over df and other.
func (df *DataFrame) deriveBoth(other *DataFrame, q sqlast.Query, cols []string) *DataFrame {
	out := df.derive(q, cols)
	for _, t := range other.tables {
		if !slices.Contains(out.tables, t) {
			out.tables = append(slices.Clip(out.tables), t)
		}
	}
	return out
}

// outName derives the output name of a projected column.
func outName(c Column) (string, error) {
	if c.alias != "" {
		return c.alias, nil
	}
	if cr, ok := c.expr.(*sqlast.ColRef); ok {
		return cr.QualifiedName(), nil
	}
	return "", fmt.Errorf("snowpark: derived column %s requires an alias (use .As)", sqlast.RenderExpr(c.expr))
}

// Select projects the given columns, like DataFrame.select(). A
// definition of an open frame that the new list reads once moves into it;
// the others are dropped with the old list.
func (df *DataFrame) Select(cols ...Column) (*DataFrame, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("snowpark: Select requires at least one column")
	}
	items := make([]sqlast.SelectItem, len(cols))
	names := make([]string, len(cols))
	exprs := make([]sqlast.Expr, len(cols))
	agg := false
	for i, c := range cols {
		name, err := outName(c)
		if err != nil {
			return nil, err
		}
		items[i] = sqlast.SelectItem{Expr: c.expr, Alias: name}
		names[i] = name
		exprs[i] = c.expr
		agg = agg || engine.ContainsAggregate(c.expr)
	}
	if s := df.open; s != nil && !agg {
		if exprs, ok := inline(s, exprs, func(string) bool { return true }); ok {
			for i := range items {
				items[i].Expr = exprs[i]
			}
			return df.extend(s, items, s.Where, names), nil
		}
	}
	q := &sqlast.Select{Items: items, From: df.subquery()}
	out := df.derive(q, names)
	if !agg {
		out.open = q
	}
	return out, nil
}

// Where filters rows, like DataFrame.where()/filter(). It never joins a
// SELECT that numbers rows (SEQ8, SEQ4): the filter would renumber the rows
// that survive it.
func (df *DataFrame) Where(cond Column) *DataFrame {
	numbersRows := func(it sqlast.SelectItem) bool { return engine.ExprStateful(it.Expr) }
	if s := df.open; s != nil && !slices.ContainsFunc(s.Items, numbersRows) {
		if e, ok := inline(s, []sqlast.Expr{cond.expr}, nil); ok {
			where := e[0]
			if s.Where != nil {
				where = sqlast.B("AND", s.Where, where)
			}
			return df.extend(s, s.Items, where, df.cols)
		}
	}
	q := &sqlast.Select{
		Items: []sqlast.SelectItem{{Star: true}},
		From:  df.subquery(),
		Where: cond.expr,
	}
	return df.deriveOpen(q, df.cols)
}

// WithColumn appends (or replaces) one derived column, like
// DataFrame.withColumn(). Replacement re-projects explicitly.
func (df *DataFrame) WithColumn(name string, c Column) *DataFrame {
	at := slices.Index(df.cols, name)
	cols := withName(df.cols, name, at)
	if s := df.open; s != nil {
		if e, ok := inline(s, []sqlast.Expr{c.expr}, func(n string) bool { return at >= 0 && n == name }); ok {
			return df.extend(s, withItem(s, df.cols, name, e[0], at >= 0), s.Where, cols)
		}
	}
	q := &sqlast.Select{Items: []sqlast.SelectItem{{Star: true}}, From: df.subquery()}
	q.Items = withItem(q, df.cols, name, c.expr, at >= 0)
	return df.deriveOpen(q, cols)
}

// withName is cols after WithColumn(name): unchanged when name is column
// at, else with name appended.
func withName(cols []string, name string, at int) []string {
	if at >= 0 {
		return cols
	}
	return append(slices.Clip(cols), name)
}

// withItem returns s's select list with the column name defined as e:
// appended, or, when replace is set, in place of its old definition — a
// column the star passes through first has the star listed out as plain
// references to cols, the frame's output.
func withItem(s *sqlast.Select, cols []string, name string, e sqlast.Expr, replace bool) []sqlast.SelectItem {
	if !replace {
		return append(slices.Clip(s.Items), sqlast.SelectItem{Expr: e, Alias: name})
	}
	items := make([]sqlast.SelectItem, 0, len(cols))
	for i, it := range s.Items {
		if !it.Star {
			if it.Alias == name {
				it.Expr = e
			}
			items = append(items, it)
			continue
		}
		// The star yields the output columns between the items before and
		// after it.
		for _, c := range cols[i : len(cols)-(len(s.Items)-1-i)] {
			if c == name {
				items = append(items, sqlast.SelectItem{Expr: e, Alias: name})
			} else {
				items = append(items, sqlast.SelectItem{Expr: colRefByName(c), Alias: c})
			}
		}
	}
	return items
}

// inline rewrites exprs, read over s's output columns, to read s's input
// instead, reporting false when it cannot: a column the star passes through
// stays a reference, a column s defines as a column reference or literal
// becomes its definition, and a column s defines otherwise becomes its
// definition only when movable(name) holds and exprs read it once.
func inline(s *sqlast.Select, exprs []sqlast.Expr, movable func(string) bool) ([]sqlast.Expr, bool) {
	ok := true
	var moved map[string]int
	var visit func(sqlast.Expr) sqlast.Expr
	visit = func(e sqlast.Expr) sqlast.Expr {
		cr, isRef := e.(*sqlast.ColRef)
		if !isRef {
			return sqlast.MapChildren(e, visit)
		}
		name := cr.QualifiedName()
		def := definition(s, name)
		switch def.(type) {
		case nil:
			return e
		case *sqlast.ColRef, *sqlast.Lit:
			return def
		}
		if movable == nil || !movable(name) {
			ok = false
			return e
		}
		if moved == nil {
			moved = make(map[string]int)
		}
		moved[name]++
		ok = ok && moved[name] == 1
		return def
	}
	out := make([]sqlast.Expr, len(exprs))
	for i, e := range exprs {
		if out[i] = visit(e); !ok {
			return nil, false
		}
	}
	return out, true
}

// definition returns the expression s defines the output column name by,
// or nil when the star passes name through.
func definition(s *sqlast.Select, name string) sqlast.Expr {
	for _, it := range s.Items {
		if !it.Star && it.Alias == name {
			return it.Expr
		}
	}
	return nil
}

// extend returns the frame of s with its select list, WHERE and output
// columns replaced.
func (df *DataFrame) extend(s *sqlast.Select, items []sqlast.SelectItem, where sqlast.Expr, cols []string) *DataFrame {
	q := *s
	q.Items, q.Where = items, where
	return df.deriveOpen(&q, cols)
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
	return df.deriveOpen(&sqlast.Select{Items: items, From: df.subquery()}, cols), nil
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
	return df.deriveOpen(q, cols)
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
	out := df.deriveBoth(other, q, cols)
	out.open = q
	return out, nil
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
	return df.deriveBoth(other, &sqlast.SetOp{Op: "UNION ALL", Left: df.query, Right: other.query}, df.cols), nil
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
	return df.session.eng.Query(df.SQL())
}
