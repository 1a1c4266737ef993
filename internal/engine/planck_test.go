package engine

import (
	"strings"
	"testing"

	"jsonpark/internal/sqlparse"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// planChecked turns on the planck pass (the Engine.planCheck test hook).
func planChecked() Option {
	return func(e *Engine) { e.planCheck = true }
}

// buildPlan compiles and optimizes one query against the engine's catalog.
func buildPlan(t *testing.T, e *Engine, sql string) Node {
	t.Helper()
	q, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	pl := &planner{catalog: e.Catalog()}
	plan, err := pl.Build(q)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return optimize(plan, nil, !e.noDiscardRules)
}

// TestPlanCheckCertifiesPhysicalPlans runs planck's build-time half over the
// plans compile produces — exchanges, streamed and hash aggregates included —
// for every plan shape the parity battery and the nested-query shapes cover.
func TestPlanCheckCertifiesPhysicalPlans(t *testing.T) {
	e := multiPartEngine(t)
	flat := `(SELECT * FROM ` + ridEvents + `, LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f")`
	queries := append([]string{}, parityQueries...)
	queries = append(queries,
		`SELECT COUNT(*) FROM events`,
		`SELECT MIN(val), MAX(val) FROM events WHERE grp < 4`,
		`SELECT COUNT(*) FROM events WHERE SEQ8() < 10`,
		`SELECT SUM(val) FROM events`,
		`SELECT COUNT(*) FROM (SELECT id FROM events ORDER BY val)`,
		`SELECT COUNT(*) FROM (SELECT id FROM events LIMIT 5)`,
		`SELECT "rid", COUNT(*), ARRAY_AGG("f".VALUE) FROM `+flat+` GROUP BY "rid"`,
		`SELECT COUNT(*) FROM (SELECT * FROM "events"), LATERAL FLATTEN(INPUT => "items") AS "f"`,
	)
	exchanges := 0
	for _, sql := range queries {
		cp, err := e.compile(sql, PrepareOptions{})
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if err := checkPlan(cp.plan); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
		forEachNode(cp.plan, func(n Node) {
			if _, ok := n.(*ExchangeNode); ok {
				exchanges++
			}
		})
	}
	if exchanges < 2 {
		t.Fatalf("%d exchanges across the battery: the physical shapes are not covered", exchanges)
	}
}

// fakeNode is a plan node planck has no contract for.
type fakeNode struct{}

func (fakeNode) Schema() *Schema { return NewSchema(nil) }

func TestCheckSelContractRejectsUnknownNodes(t *testing.T) {
	err := checkPlan(fakeNode{})
	if err == nil || !strings.Contains(err.Error(), "unknown plan node") {
		t.Errorf("got %v, want unknown-plan-node error", err)
	}
}

// TestCheckPlanRejectsJoinOn: the join operator evaluates keys and residual
// only, so a compiled join that still carries an ON condition fails planck
// instead of silently dropping it.
func TestCheckPlanRejectsJoinOn(t *testing.T) {
	e := multiPartEngine(t)
	sql := `SELECT "id", "oid" FROM (SELECT "id", "grp" FROM "events") INNER JOIN (SELECT "id" AS "oid", "grp" AS "og" FROM "events") ON "grp" = "og" AND "id" < "oid"`
	cp, err := e.compile(sql, PrepareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var join *JoinNode
	forEachNode(cp.plan, func(n Node) {
		if x, ok := n.(*JoinNode); ok {
			join = x
		}
	})
	if join == nil || join.On != nil || len(join.LeftKeys) != 1 || join.Residual == nil {
		t.Fatalf("pushdown did not fold ON into one key and a residual: %+v", join)
	}
	if err := checkPlan(cp.plan); err != nil {
		t.Fatalf("folded join rejected: %v", err)
	}
	join.On = join.Residual
	if err := checkPlan(cp.plan); err == nil || !strings.Contains(err.Error(), "kept its ON condition") {
		t.Errorf("join with an ON condition: got %v, want a kept-ON error", err)
	}
}

func TestValidateBatch(t *testing.T) {
	col := func(n int) []variant.Value { return make([]variant.Value, n) }
	good := &vector.Batch{Cols: [][]variant.Value{col(4), col(4)}, Sel: []int{0, 2, 3}}
	if err := validateBatch(good); err != nil {
		t.Errorf("good batch rejected: %v", err)
	}
	dense := &vector.Batch{Cols: [][]variant.Value{col(4)}}
	if err := validateBatch(dense); err != nil {
		t.Errorf("dense batch rejected: %v", err)
	}
	nonMono := &vector.Batch{Cols: [][]variant.Value{col(4)}, Sel: []int{2, 1}}
	if err := validateBatch(nonMono); err == nil || !strings.Contains(err.Error(), "strictly increasing") {
		t.Errorf("non-monotone sel: got %v", err)
	}
	oob := &vector.Batch{Cols: [][]variant.Value{col(2)}, Sel: []int{0, 5}}
	if err := validateBatch(oob); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("out-of-range sel: got %v", err)
	}
	ragged := &vector.Batch{Cols: [][]variant.Value{col(3), col(2)}}
	if err := validateBatch(ragged); err == nil || !strings.Contains(err.Error(), "ragged") {
		t.Errorf("ragged columns: got %v", err)
	}
}

// TestPlanCheckEndToEnd runs the parity battery with planck fully enabled:
// the checks must stay silent and the results must match an unchecked
// engine exactly.
func TestPlanCheckEndToEnd(t *testing.T) {
	checked := multiPartEngine(t, planChecked(), WithBatchSize(7), WithParallelism(4))
	plain := multiPartEngine(t, WithBatchSize(7), WithParallelism(4))
	for _, sql := range parityQueries {
		want, err := plain.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		got, err := checked.Query(sql)
		if err != nil {
			t.Fatalf("%s under planck: %v", sql, err)
		}
		if renderRows(got) != renderRows(want) {
			t.Errorf("%s: planck engine diverged", sql)
		}
	}
}
