// Package core implements the paper's primary contribution: translating
// JSONiq queries into a single native SQL query via the Snowpark-style
// DataFrame API (§III). The translator walks the rewritten expression tree
// the JSONiq frontend produces exactly once, one node per iterator of §III;
// FLWOR clauses manipulate DataFrame objects while other expressions
// compose Column objects (§III-B). The iterator tree itself is built only
// for the census (Translate). Nested
// queries are handled by row-ID injection, LATERAL FLATTEN and
// re-aggregation (§IV-B), with both published strategies for the erroneous
// object elimination problem (§IV-C): the KEEP flag-column approach and the
// JOIN-based approach.
package core

import (
	"fmt"

	"jsonpark/internal/iterplan"
	"jsonpark/internal/jsoniq"
	"jsonpark/internal/obsv"
	"jsonpark/internal/snowpark"
)

// Strategy selects how nested queries avoid erroneous object elimination.
type Strategy int

// Strategies (§IV-C). The paper leaves the choice to the practitioner and
// names an automatic optimizer as future work (§IV-E); StrategyAuto
// implements that optimizer with the decision rule measured in this
// substrate's ablation (EXPERIMENTS.md): the JOIN-based approach wins
// unless nested queries stack deeply, where its repeated self-joins
// dominate and the flag-column approach takes over.
const (
	StrategyKeepFlag Strategy = iota
	StrategyJoin
	StrategyAuto
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyJoin:
		return "join"
	case StrategyAuto:
		return "auto"
	}
	return "keep-flag"
}

// autoNestedThreshold is the nested-query count at and above which
// StrategyAuto selects the flag-column approach.
const autoNestedThreshold = 4

// ChooseStrategy resolves StrategyAuto for a parsed query by counting the
// FLWOR expressions in expression position (each becomes one
// flatten/re-aggregate round trip). Explicit strategies pass through.
func ChooseStrategy(s Strategy, e jsoniq.Expr) Strategy {
	if s != StrategyAuto {
		return s
	}
	if countNestedQueries(e) >= autoNestedThreshold {
		return StrategyKeepFlag
	}
	return StrategyJoin
}

// countNestedQueries counts FLWOR expressions excluding the outermost one.
func countNestedQueries(e jsoniq.Expr) int {
	total := 0
	jsoniq.Walk(e, func(n jsoniq.Expr) bool {
		if _, ok := n.(*jsoniq.FLWOR); ok {
			total++
		}
		return true
	})
	if _, ok := e.(*jsoniq.FLWOR); ok && total > 0 {
		total--
	}
	return total
}

// Options configures one translation.
type Options struct {
	Strategy Strategy
	// Span, when non-nil, receives one child span per lowering stage
	// (jsoniq.lex/parse/rewrite, iterplan.build, core.translate,
	// snowpark.render) so translation-layer overheads are individually
	// timed, per the paper's §V breakdown.
	Span *obsv.Span
}

// Result is a completed translation.
type Result struct {
	// DataFrame lazily encapsulates the single translated SQL query, already
	// rendered: its SQL and Collect reuse the text in SQL.
	DataFrame *snowpark.DataFrame
	// SQL is the rendered query text.
	SQL string
	// Census counts the iterators the translation visited (Table II).
	Census iterplan.CensusResult
	// Strategy is the resolved nested-query strategy (Auto decided).
	Strategy Strategy
}

// Translate parses, rewrites and translates a JSONiq query into a single
// SQL query bound to the session's engine. Every translated query produces
// one column named "result" holding the returned items in row order.
func Translate(sess *snowpark.Session, src string, opts Options) (*Result, error) {
	sp := opts.Span
	expr, err := jsoniq.ParseTraced(src, sp)
	if err != nil {
		return nil, err
	}
	rwsp := sp.Child("jsoniq.rewrite")
	expr = jsoniq.Rewrite(expr)
	rwsp.End()
	bsp := sp.Child("iterplan.build")
	iters, err := iterplan.Build(expr)
	if err != nil {
		bsp.End()
		return nil, err
	}
	census := iterplan.Census(iters)
	bsp.SetAttr("iterators", census.Total())
	bsp.SetAttr("flwor-iterators", census.FLWOR)
	bsp.End()
	opts.Strategy = ChooseStrategy(opts.Strategy, expr)
	tsp := sp.Child("core.translate")
	tsp.SetAttr("strategy", opts.Strategy.String())
	df, err := TranslateExpr(sess, expr, opts)
	tsp.End()
	if err != nil {
		return nil, err
	}
	rsp := sp.Child("snowpark.render")
	df = df.Rendered()
	sql := df.SQL()
	rsp.SetAttr("sql-bytes", len(sql))
	rsp.End()
	return &Result{
		DataFrame: df,
		SQL:       sql,
		Census:    census,
		Strategy:  opts.Strategy,
	}, nil
}

// TranslateExpr translates an already-parsed query. It first renames every
// binding that shadows another (jsoniq.RenameShadowed), so the translator
// names columns after variables without one binding overwriting another.
func TranslateExpr(sess *snowpark.Session, expr jsoniq.Expr, opts Options) (*snowpark.DataFrame, error) {
	expr = jsoniq.RenameShadowed(expr)
	opts.Strategy = ChooseStrategy(opts.Strategy, expr)
	tr := &translator{sess: sess, opts: opts}
	return tr.translateTopLevel(expr)
}

// translator carries per-translation state: the session (for table schema
// resolution) and a counter for unique auxiliary column names ("#rid3",
// "#keep3", "#nq3", ...). '#' cannot occur in JSONiq variable names, so
// auxiliary columns never collide with user variables.
type translator struct {
	sess   *snowpark.Session
	opts   Options
	nextID int
	// tableVars maps a collection-bound variable to its table's column
	// names: field access on such variables resolves to the dedicated
	// passthrough column ("e.Jet") instead of GET on the assembled object,
	// preserving column-level prunability end to end (a translation-level
	// optimization in the spirit of §VII-A). It, like every column the
	// translator names after a variable, is keyed by name for the whole
	// translation: TranslateExpr's RenameShadowed makes each name one
	// binding.
	tableVars map[string][]string
	// nonNull marks the variables that can never be NULL: for-bound
	// without `allowing empty`, and positions.
	nonNull map[string]bool
	// pending is what is left to translate around the expression at hand,
	// one entry per FLWOR it sits in, outermost first; live reads it into
	// reads.
	pending []pending
	reads   reads
}

func (tr *translator) fresh(prefix string) string {
	id := tr.nextID
	tr.nextID++
	return fmt.Sprintf("#%s%d", prefix, id)
}

// translateTopLevel dispatches on the outermost expression form: a FLWOR
// expression, or an aggregate function applied to a FLWOR (e.g. the
// sum(for ...) shape of the SSB JSONiq queries).
func (tr *translator) translateTopLevel(e jsoniq.Expr) (*snowpark.DataFrame, error) {
	switch x := e.(type) {
	case *jsoniq.FLWOR:
		return tr.translateQuery(x)
	case *jsoniq.FunctionCall:
		if agg, ok := topLevelAggregates[x.Name]; ok && len(x.Args) == 1 {
			if inner, isFLWOR := x.Args[0].(*jsoniq.FLWOR); isFLWOR {
				df, err := tr.translateQuery(inner)
				if err != nil {
					return nil, err
				}
				col, err := applyGlobalAggregate(agg, snowpark.Col("result"))
				if err != nil {
					return nil, err
				}
				return df.Agg(col.As("result"))
			}
		}
	}
	return nil, fmt.Errorf("core: a translatable query must be a FLWOR expression or an aggregate over one, got %T", e)
}

// topLevelAggregates maps JSONiq aggregate names to SQL aggregates.
var topLevelAggregates = map[string]string{
	"count": "COUNT", "sum": "SUM", "avg": "AVG", "min": "MIN", "max": "MAX",
}

func applyGlobalAggregate(agg string, c snowpark.Column) (snowpark.Column, error) {
	switch agg {
	case "COUNT":
		return snowpark.Count(c), nil
	case "SUM":
		return snowpark.Coalesce(snowpark.Sum(c), snowpark.LitInt(0)), nil
	case "AVG":
		return snowpark.Avg(c), nil
	case "MIN":
		return snowpark.Min(c), nil
	case "MAX":
		return snowpark.Max(c), nil
	}
	return snowpark.Column{}, fmt.Errorf("core: unsupported global aggregate %q", agg)
}

// translateQuery translates a complete (outermost) FLWOR expression: the
// clauses thread a DataFrame left to right (§III-B2) and the return clause
// projects the final "result" column. A group by clause rewrites the
// remaining clauses and the return expression so that aggregate calls over
// non-grouping variables map to native SQL aggregates (aggregate detection).
func (tr *translator) translateQuery(f *jsoniq.FLWOR) (*snowpark.DataFrame, error) {
	ctx := &clauseContext{tr: tr}
	at := tr.enter(f, f.Clauses, f.Return)
	defer tr.leave()
	for rest, ret := f.Clauses, f.Return; ; {
		tr.advance(at, rest, ret)
		if len(rest) == 0 {
			break
		}
		if gb, ok := rest[0].(*jsoniq.GroupByClause); ok {
			var err error
			if rest, ret, err = ctx.applyGroupBy(gb, rest[1:], ret); err != nil {
				return nil, err
			}
			continue
		}
		if err := ctx.apply(rest[0]); err != nil {
			return nil, err
		}
		rest = rest[1:]
	}
	if ctx.df == nil {
		return nil, fmt.Errorf("core: query must contain at least one for clause over a collection")
	}
	col, df, err := tr.expr(ctx.df, tr.pending[at].ret)
	if err != nil {
		return nil, err
	}
	return df.Select(col.As("result"))
}
