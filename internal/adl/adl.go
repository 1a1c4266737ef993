package adl

import (
	"fmt"
	"sort"

	"jsonpark/internal/core"
	"jsonpark/internal/engine"
	"jsonpark/internal/hepdata"
	"jsonpark/internal/jsoniq"
	"jsonpark/internal/runtime"
	"jsonpark/internal/snowpark"
	"jsonpark/internal/variant"
)

// Setup loads events generated from seed into a fresh engine and returns
// the session plus the documents (for the interpreted baselines). The query
// cache is off, so every run pays compilation; opts apply after that, so
// engine.WithPlanCacheSize(0) turns it back on.
func Setup(seed int64, events int, opts ...engine.Option) (*snowpark.Session, []variant.Value, error) {
	eng := engine.New(append([]engine.Option{engine.WithPlanCacheSize(-1)}, opts...)...)
	docs, err := hepdata.Load(eng, "adl", seed, events)
	if err != nil {
		return nil, nil, err
	}
	return snowpark.NewSession(eng), docs, nil
}

// HistBin is one histogram bucket.
type HistBin struct {
	Bin   float64
	Count int64
}

// Histogram is a canonical, bin-sorted query result used to check that all
// back-ends agree.
type Histogram []HistBin

// String renders the histogram compactly.
func (h Histogram) String() string {
	s := ""
	for _, b := range h {
		s += fmt.Sprintf("[%g:%d]", b.Bin, b.Count)
	}
	return s
}

// Equal compares two histograms exactly.
func (h Histogram) Equal(o Histogram) bool {
	if len(h) != len(o) {
		return false
	}
	for i := range h {
		if h[i] != o[i] {
			return false
		}
	}
	return true
}

// TotalCount sums the bucket counts.
func (h Histogram) TotalCount() int64 {
	var n int64
	for _, b := range h {
		n += b.Count
	}
	return n
}

func (h Histogram) sortBins() {
	sort.Slice(h, func(i, j int) bool { return h[i].Bin < h[j].Bin })
}

// HistogramFromItems canonicalizes {bin, count} objects (translated and
// interpreted back-ends).
func HistogramFromItems(items []variant.Value) (Histogram, error) {
	out := make(Histogram, 0, len(items))
	for _, it := range items {
		bin := it.Field("bin")
		cnt := it.Field("count")
		if bin.IsNull() && cnt.IsNull() {
			return nil, fmt.Errorf("adl: item %s is not a histogram bucket", it)
		}
		out = append(out, HistBin{Bin: bin.AsFloat(), Count: cnt.AsInt()})
	}
	out.sortBins()
	return out, nil
}

// HistogramFromRows canonicalizes (bin, count) relational rows (handwritten
// back-end).
func HistogramFromRows(rows [][]variant.Value) (Histogram, error) {
	out := make(Histogram, 0, len(rows))
	for _, r := range rows {
		if len(r) != 2 {
			return nil, fmt.Errorf("adl: expected 2 columns, got %d", len(r))
		}
		out = append(out, HistBin{Bin: r[0].AsFloat(), Count: r[1].AsInt()})
	}
	out.sortBins()
	return out, nil
}

// RunTranslated translates the query (using its per-query strategy unless
// overridden) and executes it, returning the histogram and engine metrics.
func RunTranslated(sess *snowpark.Session, q Query, strategy *core.Strategy) (Histogram, *engine.Result, error) {
	strat := q.Strategy
	if strategy != nil {
		strat = *strategy
	}
	res, err := core.Translate(sess, q.JSONiq, core.Options{Strategy: strat})
	if err != nil {
		return nil, nil, fmt.Errorf("adl %s: translate: %w", q.ID, err)
	}
	out, err := res.DataFrame.Collect()
	if err != nil {
		return nil, nil, fmt.Errorf("adl %s: execute: %w", q.ID, err)
	}
	items := make([]variant.Value, len(out.Rows))
	for i, r := range out.Rows {
		items[i] = r[0]
	}
	h, err := HistogramFromItems(items)
	if err != nil {
		return nil, nil, fmt.Errorf("adl %s: %w", q.ID, err)
	}
	return h, out, nil
}

// RunHandwritten executes the handwritten SQL reference.
func RunHandwritten(eng *engine.Engine, q Query) (Histogram, *engine.Result, error) {
	out, err := eng.Query(q.SQL)
	if err != nil {
		return nil, nil, fmt.Errorf("adl %s: handwritten: %w", q.ID, err)
	}
	h, err := HistogramFromRows(out.Rows)
	if err != nil {
		return nil, nil, fmt.Errorf("adl %s: %w", q.ID, err)
	}
	return h, out, nil
}

// RunInterpreted executes the reference JSONiq on an interpreted baseline.
func RunInterpreted(rt *runtime.Engine, q Query) (Histogram, error) {
	expr, err := jsoniq.Parse(q.JSONiq)
	if err != nil {
		return nil, fmt.Errorf("adl %s: parse: %w", q.ID, err)
	}
	items, err := rt.Run(jsoniq.Rewrite(expr))
	if err != nil {
		return nil, fmt.Errorf("adl %s: interpret: %w", q.ID, err)
	}
	h, err := HistogramFromItems(items)
	if err != nil {
		return nil, fmt.Errorf("adl %s: %w", q.ID, err)
	}
	return h, nil
}
