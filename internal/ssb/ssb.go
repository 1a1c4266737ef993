package ssb

import (
	"fmt"
	"sort"

	"jsonpark/internal/core"
	"jsonpark/internal/engine"
	"jsonpark/internal/jsoniq"
	"jsonpark/internal/runtime"
	"jsonpark/internal/snowpark"
	"jsonpark/internal/variant"
)

// Setup loads the SSB database generated from seed at scale factor sf into
// a fresh engine. The query cache is off, so every run pays compilation;
// opts apply after that.
func Setup(seed int64, sf float64, opts ...engine.Option) (*snowpark.Session, error) {
	eng := engine.New(append([]engine.Option{engine.WithPlanCacheSize(-1)}, opts...)...)
	if err := Generate(seed, SizesForScaleFactor(sf)).Load(eng); err != nil {
		return nil, err
	}
	return snowpark.NewSession(eng), nil
}

// Rows is a canonical, order-insensitive query result: one JSON object per
// row, sorted by serialized form.
type Rows []string

// Equal compares two canonical results.
func (r Rows) Equal(o Rows) bool {
	if len(r) != len(o) {
		return false
	}
	for i := range r {
		if r[i] != o[i] {
			return false
		}
	}
	return true
}

func canonItems(items []variant.Value) Rows {
	out := make(Rows, len(items))
	for i, it := range items {
		out[i] = it.HashKey()
	}
	sort.Strings(out)
	return out
}

// canonResult converts a relational result to objects keyed by column name,
// so handwritten SQL rows compare against JSONiq objects.
func canonResult(res *engine.Result) Rows {
	out := make(Rows, len(res.Rows))
	for i, row := range res.Rows {
		if len(row) == 1 {
			out[i] = row[0].HashKey()
			continue
		}
		o := variant.NewObject()
		for c, name := range res.Columns {
			o.Set(name, row[c])
		}
		out[i] = variant.ObjectValue(o).HashKey()
	}
	sort.Strings(out)
	return out
}

// RunTranslated translates and executes one query.
func RunTranslated(sess *snowpark.Session, q Query) (Rows, *engine.Result, error) {
	res, err := core.Translate(sess, q.JSONiq, core.Options{})
	if err != nil {
		return nil, nil, fmt.Errorf("ssb %s: translate: %w", q.ID, err)
	}
	out, err := res.DataFrame.Collect()
	if err != nil {
		return nil, nil, fmt.Errorf("ssb %s: execute: %w", q.ID, err)
	}
	items := make([]variant.Value, len(out.Rows))
	for i, row := range out.Rows {
		items[i] = row[0]
	}
	return canonItems(items), out, nil
}

// TranslateSQL returns the translated SQL text without executing it.
func TranslateSQL(sess *snowpark.Session, q Query) (string, error) {
	res, err := core.Translate(sess, q.JSONiq, core.Options{})
	if err != nil {
		return "", fmt.Errorf("ssb %s: translate: %w", q.ID, err)
	}
	return res.SQL, nil
}

// RunHandwritten executes the handwritten SQL reference.
func RunHandwritten(eng *engine.Engine, q Query) (Rows, *engine.Result, error) {
	out, err := eng.Query(q.SQL)
	if err != nil {
		return nil, nil, fmt.Errorf("ssb %s: handwritten: %w", q.ID, err)
	}
	return canonResult(out), out, nil
}

// RunInterpreted executes the JSONiq query on the interpreted runtime.
func RunInterpreted(rt *runtime.Engine, q Query) (Rows, error) {
	expr, err := jsoniq.Parse(q.JSONiq)
	if err != nil {
		return nil, fmt.Errorf("ssb %s: parse: %w", q.ID, err)
	}
	items, err := rt.Run(jsoniq.Rewrite(expr))
	if err != nil {
		return nil, fmt.Errorf("ssb %s: interpret: %w", q.ID, err)
	}
	return canonItems(items), nil
}
