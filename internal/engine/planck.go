package engine

// planck is the plan-check pass: a debug mode (the Engine.planCheck test
// hook) that re-verifies, at plan build time and again at run time, the
// invariants the parallel scan work of PR 2 and the streaming aggregate rest
// on.
//
//  1. Unordered-exchange eligibility. collectUnorderedScans decides
//     top-down which scans may skip the ordered morsel merge. planck
//     re-derives the same property bottom-up — a scan is eligible exactly
//     when the path from it to the nearest order-erasing aggregate (global,
//     order-insensitive, stateless arguments) consists only of operators
//     that preserve the row multiset independent of order — and fails
//     preparation if the two analyses ever disagree, in either direction. A
//     scan marked unordered but not eligible is a wrong-results bug; a scan
//     eligible but not marked is a silent performance regression.
//
//  2. Selection-vector monotonicity. Every operator's contract is to emit
//     batches whose selection vector is strictly increasing and in bounds
//     (the exchange's renumbering and Batch.ForEach both rely on it).
//     checkSelContract asserts statically that every plan node is one whose
//     emitted selection class is known — an unfamiliar node type is an
//     error, forcing new operators to declare their contract here — and the
//     operator envelope runs validateBatch on each emitted batch.
//
//  3. Streaming-aggregate clustering. physicalize marks an aggregate Stream
//     from an order property it derives bottom-up for whole nodes. planck
//     re-derives it the other way — top-down from each marked aggregate's
//     key, one column at a time, to the SEQ8()/SEQ4() projection it must
//     descend from — and fails preparation when the trace crosses anything
//     that can reorder or recompute the column. (The run-time half is the
//     operator's own check: a key that regresses fails the query.)
//
// All checks are pure assertions: a passing plan executes identically with
// and without planck, modulo the per-batch validation cost.

import (
	"fmt"

	"jsonpark/internal/vector"
)

// checkPlan runs the build-time half of planck against the marking that the
// executor will actually use.
func checkPlan(root Node, unordered map[Node]bool) error {
	if err := checkUnorderedScans(root, nil, unordered); err != nil {
		return err
	}
	if err := checkStreamAggs(root); err != nil {
		return err
	}
	return checkSelContract(root)
}

// checkStreamAggs verifies every aggregate marked Stream: one group key, a
// column reference, clustered in the aggregate's input.
func checkStreamAggs(n Node) error {
	if x, ok := n.(*AggregateNode); ok && x.Stream {
		if len(x.GroupBy) != 1 || !clusteredColumn(x.Input, colIndex(x.Input.Schema(), x.GroupBy[0])) {
			return fmt.Errorf("planck: aggregate is marked stream but its grouping %v does not trace to a row ID through order-preserving operators", x.GroupNames)
		}
	}
	for _, c := range planChildren(n) {
		if err := checkStreamAggs(c); err != nil {
			return err
		}
	}
	return nil
}

// clusteredColumn traces output column col of n down to its origin and
// reports whether it is non-decreasing in row order: a SEQ8()/SEQ4()
// projection, reached through pass-through projections, filters, limits,
// FLATTEN input columns, and streamed aggregates (their key, or ANY_VALUE /
// MIN / MAX of a clustered column).
func clusteredColumn(n Node, col int) bool {
	if col < 0 {
		return false
	}
	switch x := n.(type) {
	case *ProjectNode:
		e := x.Exprs[col]
		return isRowIDExpr(e) || clusteredColumn(x.Input, colIndex(x.Input.Schema(), e))
	case *FilterNode:
		return clusteredColumn(x.Input, col)
	case *LimitNode:
		return clusteredColumn(x.Input, col)
	case *ExchangeNode:
		return clusteredColumn(x.Input, col) // renumbering is exact
	case *FlattenNode:
		return col < len(x.Input.Schema().Names) && clusteredColumn(x.Input, col)
	case *AggregateNode:
		if !x.Stream {
			return false
		}
		if col == 0 {
			return true // checkStreamAggs visits this aggregate's own key too
		}
		switch spec := x.Aggs[col-1]; spec.Name {
		case "ANY_VALUE", "MIN", "MAX":
			return clusteredColumn(x.Input, colIndex(x.Input.Schema(), spec.Arg))
		}
	}
	return false
}

// checkUnorderedScans walks to every scan carrying the ancestor path and
// diffs bottom-up eligibility against the top-down marking.
func checkUnorderedScans(n Node, path []Node, unordered map[Node]bool) error {
	if s, ok := n.(*ScanNode); ok {
		eligible := unorderedEligible(path, s)
		switch {
		case unordered[s] && !eligible:
			return fmt.Errorf("planck: scan of %s is marked for unordered exchange but an order-sensitive consumer observes it", s.Table.Name)
		case eligible && !unordered[s]:
			return fmt.Errorf("planck: scan of %s is eligible for unordered exchange but not marked (ordered merge forced needlessly)", s.Table.Name)
		}
		return nil
	}
	path = append(path, n)
	for _, c := range planChildren(n) {
		if err := checkUnorderedScans(c, path, unordered); err != nil {
			return err
		}
	}
	return nil
}

// unorderedEligible derives order-insensitivity bottom-up, independently of
// markOrdered's top-down flag propagation: walking from the scan towards
// the root, each operator either passes the row multiset through
// order-independently (continue), erases order entirely (eligible), or
// observes order (ineligible).
func unorderedEligible(path []Node, s *ScanNode) bool {
	// A stateful pushed-down filter (SEQ8/SEQ4) makes the scan's own output
	// depend on evaluation order.
	if exprStateful(s.Filter) {
		return false
	}
	for i := len(path) - 1; i >= 0; i-- {
		switch x := path[i].(type) {
		case *FilterNode:
			// A stateless filter keeps the same rows under any order; a
			// stateful one keeps different rows.
			if exprStateful(x.Cond) {
				return false
			}
		case *ProjectNode:
			for _, e := range x.Exprs {
				if exprStateful(e) {
					return false
				}
			}
		case *FlattenNode:
			if exprStateful(x.Expr) {
				return false
			}
		case *SortNode:
			// A sort re-orders but never changes the row multiset; stateful
			// sort keys alter only the order, which nothing below an erasing
			// aggregate can observe.
		case *UnionNode:
			// Concatenation passes each side through.
		case *ExchangeNode:
			// Whole morsels, in completion order when unordered: a permutation
			// of its input's rows.
		case *AggregateNode:
			// The first aggregate on the path decides: a global aggregate
			// over order-insensitive accumulators with stateless arguments
			// erases its input order; any other aggregate observes it
			// (grouped output order is first-seen, float SUM folds in input
			// order).
			if len(x.GroupBy) > 0 || !aggsOrderInsensitive(x.Aggs) {
				return false
			}
			for _, spec := range x.Aggs {
				if exprStateful(spec.Arg) {
					return false
				}
			}
			return true
		case *JoinNode:
			// Probe order fixes output order, build order fixes match order.
			return false
		case *LimitNode:
			// LIMIT keeps a prefix: which rows survive depends on order.
			return false
		default:
			return false
		}
	}
	// Reached the root: result rows come back in stream order.
	return false
}

// checkSelContract asserts that every plan node is an operator whose
// selection-vector contract is declared below. All current operators emit
// batches whose Sel is nil (dense) or strictly increasing: filters build
// selections via Batch.ForEach in physical order, projections carry their
// input's selection through unchanged, and every materializing operator
// (aggregate, join, sort, flatten, scan merge) emits dense batches. A node
// type this switch does not know cannot be certified and fails the check —
// adding an operator means deciding its contract here.
func checkSelContract(n Node) error {
	switch n.(type) {
	case *ScanNode, *FilterNode, *ProjectNode, *FlattenNode,
		*AggregateNode, *JoinNode, *SortNode, *LimitNode, *UnionNode:
	case *ExchangeNode:
		// Emits its stages' batches detached: Detach keeps the selection.
	default:
		return fmt.Errorf("planck: unknown plan node %T — declare its order and selection-vector contracts in planck.go", n)
	}
	for _, c := range planChildren(n) {
		if err := checkSelContract(c); err != nil {
			return err
		}
	}
	return nil
}

// --- run-time half -----------------------------------------------------------

// validateBatch enforces the batch contract on a vector an operator emits:
// equal-length columns and a strictly increasing, in-bounds selection.
func validateBatch(b *vector.Batch) error {
	rows := -1
	for i, col := range b.Cols {
		// A typed-only column (nil variant vector, typed view set) is a valid
		// scan-batch representation; a column with neither is a contract bug.
		n := len(col)
		tc := b.TypedCol(i)
		if col == nil {
			if tc == nil {
				return fmt.Errorf("column %d has neither a variant vector nor a typed view", i)
			}
			n = tc.Len()
		} else if tc != nil && tc.Len() != n {
			return fmt.Errorf("column %d typed view has %d rows, variant vector has %d", i, tc.Len(), n)
		}
		if rows == -1 {
			rows = n
		} else if n != rows {
			return fmt.Errorf("ragged columns: column %d has %d rows, column 0 has %d", i, n, rows)
		}
	}
	if rows == -1 {
		rows = 0
	}
	prev := -1
	//jsqlint:ignore selbounds planck validates the raw selection vector itself; helpers would mask the defects it checks for
	for _, s := range b.Sel {
		if s <= prev {
			return fmt.Errorf("selection vector not strictly increasing: %d after %d", s, prev)
		}
		if s >= rows {
			return fmt.Errorf("selection index %d out of range for %d rows", s, rows)
		}
		prev = s
	}
	return nil
}
