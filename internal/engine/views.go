package engine

// Incrementally maintained materialized views. A view is registered from SQL
// text whose physical plan (compile's) is a hash aggregate the physical pass
// found eligible to fan out — an empty AggregateNode.Why: mergeable
// accumulators, stateless grouping, and a row-ID-free segment below it —
// optionally under a stateless Project/Sort/Limit/Filter suffix. The view
// retains the hash aggregate's merged state between queries (an aggMerger),
// and a refresh is one span of the same two-phase driver (exec.go): phase 1
// replays the segment physicalize recorded on the aggregate over only the
// storage partitions sealed since the last refresh (partitions are immutable
// and the partition list is append-only, so "new data" is exactly a suffix
// of the pinned partition list) into one span, and phase 2 merges that span
// into the retained merger.
//
// Correctness is the driver's merge proof: delta partitions come strictly
// after every previously absorbed partition, so merging delta partials into
// the retained state in delta first-seen order reproduces the sequential
// row-order fold exactly — which is why SUM/AVG (non-associative float
// folds) are rejected along with everything else the verdict excludes.
// The delta's source index is the absorbed-partition watermark, which grows
// monotonically across refreshes, so new groups append in first-seen order
// (stamp order) without re-sorting old groups.
//
// The suffix above the aggregate is replayed from scratch on every query —
// it is cheap (it runs over groups, not rows) and keeps ORDER BY / LIMIT /
// HAVING semantics byte-identical to the cold query.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// viewRowsNode feeds a view's finalized groups, emitted as batches, to the
// stateless suffix, which executes through the ordinary operators. Its
// source is one-shot, so emitLocked builds a node per query.
type viewRowsNode struct {
	schema *Schema
	src    batchIter
}

func (n *viewRowsNode) Schema() *Schema { return n.schema }

// matView is one registered materialized view: the decomposed plan plus the
// retained accumulator state. Everything past name and eng is guarded by mu
// — refresh and emit run under it.
type matView struct {
	name string
	eng  *Engine

	mu sync.Mutex
	*viewPlan
	// merged is the retained state: groups merged across refreshes, in
	// sequential first-seen output order.
	merged aggMerger
	// partsDone is the absorbed-partition watermark into the table's
	// append-only partition list.
	partsDone int
	// Refresh accounting for introspection.
	refreshes  int64
	deltaParts int64
}

// viewPlan is a view's compiled query, decomposed: suffix is the stateless
// operator chain above the aggregate in root-first order; seg is the
// aggregate's input pipeline, replayed over the delta partitions; emitAggs
// carries the aggregate descriptors for finalization (expressions hold
// state, but descs are static).
type viewPlan struct {
	cp       *compiledPlan
	suffix   []Node
	agg      *AggregateNode
	seg      *segmentPlan
	emitAggs []compiledAgg
}

// viewRegistry holds an engine's materialized views by name.
type viewRegistry struct {
	mu    sync.Mutex
	views map[string]*matView
}

// ViewInfo describes one registered view for introspection (jsqd's /views).
type ViewInfo struct {
	Name    string   `json:"name"`
	SQL     string   `json:"sql"`
	Table   string   `json:"table"`
	Columns []string `json:"columns"`
	// Groups is the retained group count; PartsDone the absorbed-partition
	// watermark; Refreshes how many refreshes ran; DeltaParts the total
	// partitions scanned incrementally (vs. Refreshes*PartsDone for full
	// recomputation).
	Groups     int   `json:"groups"`
	PartsDone  int   `json:"parts_done"`
	Refreshes  int64 `json:"refreshes"`
	DeltaParts int64 `json:"delta_parts"`
}

// CreateView registers a materialized view over the SQL query. The query's
// physical plan must be a hash aggregate the parallel aggregate admits
// (COUNT/COUNT_IF/MIN/MAX/ANY_VALUE/BOOLAND_AGG/BOOLOR_AGG/ARRAY_AGG with
// stateless arguments and grouping, over a row-ID-free Filter/Project/Flatten
// pipeline on one table) optionally under stateless Project/Sort/Limit/Filter
// operators. Anything else — SUM/AVG (float folds don't merge exactly),
// joins, unions, row IDs — is rejected, naming the aggregate's verdict, so
// incremental results stay byte-identical to full recomputation.
func (e *Engine) CreateView(name, sql string) error {
	if name == "" {
		return fmt.Errorf("engine: view name must not be empty")
	}
	cp, err := e.compile(sql, PrepareOptions{})
	if err != nil {
		return err
	}
	vp, err := e.decomposeView(name, cp)
	if err != nil {
		return err
	}
	v := &matView{name: name, eng: e, viewPlan: vp}
	e.views.mu.Lock()
	defer e.views.mu.Unlock()
	if _, exists := e.views.views[name]; exists {
		return fmt.Errorf("engine: view %q already exists", name)
	}
	if e.views.views == nil {
		e.views.views = make(map[string]*matView)
	}
	e.views.views[name] = v
	return nil
}

// decomposeView splits the physical plan into suffix + aggregate + the
// aggregate's segment and accepts the aggregate on its verdict.
func (e *Engine) decomposeView(name string, cp *compiledPlan) (*viewPlan, error) {
	var suffix []Node
	n := cp.plan
walk:
	for {
		switch x := n.(type) {
		case *ProjectNode:
			if slices.ContainsFunc(x.Exprs, ExprStateful) {
				return nil, fmt.Errorf("engine: view %q: stateful projection above the aggregate", name)
			}
			suffix = append(suffix, x)
			n = x.Input
		case *FilterNode:
			if ExprStateful(x.Cond) {
				return nil, fmt.Errorf("engine: view %q: stateful filter above the aggregate", name)
			}
			suffix = append(suffix, x)
			n = x.Input
		case *SortNode:
			for _, k := range x.Keys {
				if ExprStateful(k.Expr) {
					return nil, fmt.Errorf("engine: view %q: stateful sort key above the aggregate", name)
				}
			}
			suffix = append(suffix, x)
			n = x.Input
		case *LimitNode:
			suffix = append(suffix, x)
			n = x.Input
		case *ExchangeNode:
			// Only a streamed aggregate sits in a segment: look through the
			// exchange to name its verdict.
			n = x.Input
		case *AggregateNode:
			break walk
		default:
			return nil, fmt.Errorf("engine: view %q: plan node %T is not incrementally maintainable (need a mergeable aggregation)", name, n)
		}
	}
	agg := n.(*AggregateNode)
	why := agg.Why
	if agg.Stream {
		// Its key is a row ID of its input: the verdict the hash path gets.
		why = "row id in input"
	}
	if why != "" {
		return nil, fmt.Errorf("engine: view %q: the aggregate cannot merge incrementally: %s", name, why)
	}
	// Compile once against a throwaway context: validates every expression at
	// registration time and yields the static aggregate descriptors emit needs
	// before the first refresh.
	vctx := &execContext{metrics: &Metrics{}, batchSize: e.batchSize, parallelism: 1, acct: &memAccountant{}}
	if vctx.batchSize <= 0 {
		vctx.batchSize = 1024
	}
	ev, err := compileAggEval(vctx, agg)
	if err != nil {
		return nil, err
	}
	seg, err := newSegmentPlan(vctx, agg.Scan, agg.Stages, nil, vctx.batchSize)
	if err != nil {
		return nil, err
	}
	if _, err := seg.compile(vctx); err != nil {
		return nil, err
	}
	return &viewPlan{cp: cp, suffix: suffix, agg: agg, seg: seg, emitAggs: ev.aggs}, nil
}

// DropView removes a view, reporting whether it existed.
func (e *Engine) DropView(name string) bool {
	e.views.mu.Lock()
	defer e.views.mu.Unlock()
	_, ok := e.views.views[name]
	delete(e.views.views, name)
	return ok
}

// ViewNames lists the registered views in name order.
func (e *Engine) ViewNames() []string {
	e.views.mu.Lock()
	defer e.views.mu.Unlock()
	names := make([]string, 0, len(e.views.views))
	for n := range e.views.views {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ViewInfos describes every registered view in name order.
func (e *Engine) ViewInfos() []ViewInfo {
	e.views.mu.Lock()
	vs := make([]*matView, 0, len(e.views.views))
	for _, v := range e.views.views {
		vs = append(vs, v)
	}
	e.views.mu.Unlock()
	sort.Slice(vs, func(i, j int) bool { return vs[i].name < vs[j].name })
	infos := make([]ViewInfo, len(vs))
	for i, v := range vs {
		v.mu.Lock()
		infos[i] = ViewInfo{
			Name: v.name, SQL: v.cp.sql, Table: v.seg.scan.Table.Name,
			Columns: slices.Clone(v.cp.columns),
			Groups:  len(v.merged.out), PartsDone: v.partsDone,
			Refreshes: v.refreshes, DeltaParts: v.deltaParts,
		}
		v.mu.Unlock()
	}
	return infos
}

// QueryView refreshes the named view incrementally and returns its rows.
// Metrics report the refresh cost: partitions scanned counts only the delta.
func (e *Engine) QueryView(qctx context.Context, name string) (*Result, error) {
	e.views.mu.Lock()
	v := e.views.views[name]
	e.views.mu.Unlock()
	if v == nil {
		return nil, fmt.Errorf("engine: unknown view %q", name)
	}
	return v.query(qctx)
}

func (v *matView) query(qctx context.Context) (*Result, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	ctx := &execContext{
		metrics:     &Metrics{},
		batchSize:   v.eng.batchSize,
		parallelism: 1,
		acct:        v.eng.queryAccountant(),
		qctx:        qctx,
		typedOff:    v.eng.typedOff,
	}
	defer ctx.acct.drain()
	if ctx.batchSize <= 0 {
		ctx.batchSize = vector.DefaultBatchSize
	}
	start := time.Now()
	if err := v.refreshLocked(ctx); err != nil {
		return nil, err
	}
	rows, err := v.emitLocked(ctx)
	if err != nil {
		return nil, err
	}
	ctx.fillMetrics(ctx.metrics, start, len(rows))
	return &Result{Columns: slices.Clone(v.cp.columns), Rows: rows, Metrics: *ctx.metrics}, nil
}

// refreshLocked absorbs the partitions sealed since the last refresh into
// the retained state. The snapshot seals buffered rows first, so a refresh
// observes everything appended before it, exactly like a query.
func (v *matView) refreshLocked(ctx *execContext) error {
	if err := v.followTableLocked(); err != nil {
		return err
	}
	snap := v.seg.scan.Table.Snapshot()
	if delta := snap.Parts[v.partsDone:]; len(delta) > 0 {
		// One span over the delta, merged into the retained state: every
		// delta row comes after every absorbed one, so partials merge in
		// input order and new groups append in first-seen order.
		mem := ctx.opMemFor(v.agg)
		defer mem.releaseAll()
		spans, _, err := foldParts(ctx, v.agg, v.seg, delta, 1, mem)
		defer spans[0].discard()
		if err != nil {
			return err
		}
		if err := spans[0].mergeInto(ctx, &v.merged); err != nil {
			return err
		}
		v.partsDone = len(snap.Parts)
		v.refreshes++
		v.deltaParts += int64(len(delta))
	}
	return nil
}

// followTableLocked applies the query cache's staleness rule to the view:
// the retained state stands while the view's table is still the catalog's
// table under its name. A recreated table rebuilds the view from its SQL with
// empty state, so the refresh absorbs the new table from partition 0 and the
// view equals the cold query; a dropped one is an error naming the table.
func (v *matView) followTableLocked() error {
	cur, err := v.cp.current(v.eng.catalog)
	if err != nil {
		return fmt.Errorf("engine: view %q: %w", v.name, err)
	}
	if cur {
		return nil
	}
	cp, err := v.eng.compile(v.cp.sql, PrepareOptions{})
	if err != nil {
		return fmt.Errorf("engine: view %q: %w", v.name, err)
	}
	vp, err := v.eng.decomposeView(v.name, cp)
	if err != nil {
		return err
	}
	v.viewPlan, v.merged, v.partsDone, v.deltaParts = vp, aggMerger{}, 0, 0
	return nil
}

// emitLocked finalizes the retained groups and replays the suffix.
func (v *matView) emitLocked(ctx *execContext) ([][]variant.Value, error) {
	// A global aggregation's one row over an empty input is made at emit, so
	// the synthetic group never pollutes the retained state.
	groups := newGroupsIter(v.merged.out, len(v.agg.GroupBy), v.emitAggs, ctx.batchSize)
	// Rebuild the suffix over the emitted groups with shallow clones: the
	// shared expression trees are stateless (checked at registration) and
	// schema memos recompute per clone.
	node := Node(&viewRowsNode{schema: v.agg.Schema(), src: groups})
	for i := len(v.suffix) - 1; i >= 0; i-- {
		switch s := v.suffix[i].(type) {
		case *ProjectNode:
			node = &ProjectNode{Input: node, Exprs: s.Exprs, Names: s.Names}
		case *FilterNode:
			node = &FilterNode{Input: node, Cond: s.Cond}
		case *SortNode:
			node = &SortNode{Input: node, Keys: s.Keys}
		case *LimitNode:
			node = &LimitNode{Input: node, N: s.N}
		}
	}
	it, err := prepare(node, ctx)
	if err != nil {
		return nil, err
	}
	out, err := drainRows(it)
	it.Close()
	return out, err
}

var _ Node = (*viewRowsNode)(nil)
