package engine

// planck is the plan-check pass: a debug mode (the Engine.planCheck test
// hook) that re-verifies, at plan build time and again at run time, the
// invariants the physical plan and the operators rest on.
//
//  1. Streaming-aggregate clustering. physicalize marks an aggregate Stream
//     from an order property it derives bottom-up for whole nodes. planck
//     re-derives it the other way — top-down from each marked aggregate's
//     key, one column at a time, to the SEQ8()/SEQ4() projection it must
//     descend from — and fails preparation when the trace crosses anything
//     that can reorder or recompute the column. (The run-time half is the
//     operator's own check: a key that regresses fails the query.)
//
//  2. Selection-vector monotonicity. Every operator's contract is to emit
//     batches whose selection vector is strictly increasing and in bounds
//     (the exchange's renumbering and Batch.ForEach both rely on it).
//     checkSelContract asserts statically that every plan node is one whose
//     emitted selection class is known — an unfamiliar node type is an
//     error, forcing new operators to declare their contract here — and the
//     operator envelope runs validateBatch on each emitted batch.
//
//  3. Join conditions. A compiled join carries keys and a residual only; an
//     ON condition left on it would be silently ignored, so it fails.
//
// All checks are pure assertions: a passing plan executes identically with
// and without planck, modulo the per-batch validation cost.

import (
	"fmt"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/vector"
)

// checkPlan runs the build-time half of planck over a compiled plan.
func checkPlan(root Node) error {
	if err := checkStreamAggs(root); err != nil {
		return err
	}
	return checkSelContract(root)
}

// checkStreamAggs verifies every aggregate marked Stream: one group key, a
// column reference, clustered in the aggregate's input.
func checkStreamAggs(root Node) (err error) {
	forEachNode(root, func(n Node) {
		x, ok := n.(*AggregateNode)
		if err != nil || !ok || !x.Stream {
			return
		}
		if len(x.GroupBy) != 1 || !clusteredColumn(x.Input, colIndex(x.Input.Schema(), x.GroupBy[0])) {
			err = fmt.Errorf("planck: aggregate is marked stream but its grouping %v does not trace to a row ID through order-preserving operators", x.GroupNames)
		}
	})
	return err
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

// checkSelContract asserts that every plan node is an operator whose
// selection-vector contract is declared below. All current operators emit
// batches whose Sel is nil (dense) or strictly increasing: filters build
// selections via Batch.ForEach in physical order, projections carry their
// input's selection through unchanged, the join selects its surviving pairs
// in pair order, and every other materializing operator (aggregate, sort,
// flatten, scan merge) emits dense batches. A node
// type this switch does not know cannot be certified and fails the check —
// adding an operator means deciding its contract here. A join must also have
// no ON condition left: the operator evaluates only its keys and residual,
// into which pushdown folds ON for every join kind the parser produces.
func checkSelContract(root Node) (err error) {
	forEachNode(root, func(n Node) {
		if err != nil {
			return
		}
		switch x := n.(type) {
		case *ScanNode, *FilterNode, *ProjectNode, *FlattenNode,
			*AggregateNode, *SortNode, *LimitNode, *UnionNode:
		case *JoinNode:
			if x.On != nil {
				err = fmt.Errorf("planck: %s join kept its ON condition %s, which the operator never evaluates", x.Kind, sqlast.RenderExpr(x.On))
			}
		case *ExchangeNode:
			// Emits its stages' batches detached: Detach keeps the selection.
		default:
			err = fmt.Errorf("planck: unknown plan node %T — declare its order and selection-vector contracts in planck.go", n)
		}
	})
	return err
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
