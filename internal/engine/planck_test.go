package engine

import (
	"strings"
	"testing"

	"jsonpark/internal/sqlast"
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
	return optimize(plan)
}

// TestPlanCheckAgreesWithMarkOrdered is planck's core property: the
// bottom-up eligibility derivation must agree with the top-down marking on
// every plan shape the planner produces.
func TestPlanCheckAgreesWithMarkOrdered(t *testing.T) {
	e := multiPartEngine(t)
	queries := append([]string{}, parityQueries...)
	queries = append(queries,
		`SELECT COUNT(*) FROM events`,
		`SELECT MIN(val), MAX(val) FROM events WHERE grp < 4`,
		`SELECT COUNT(*) FROM events WHERE SEQ8() < 10`,
		`SELECT SUM(val) FROM events`,
		`SELECT COUNT(*) FROM (SELECT id FROM events ORDER BY val)`,
		`SELECT COUNT(*) FROM (SELECT id FROM events LIMIT 5)`,
	)
	for _, sql := range queries {
		plan := buildPlan(t, e, sql)
		if err := checkPlan(plan, collectUnorderedScans(plan)); err != nil {
			t.Errorf("%s: %v", sql, err)
		}
	}
}

// TestPlanCheckRejectsWrongMarking feeds checkPlan markings that disagree
// with eligibility in each direction.
func TestPlanCheckRejectsWrongMarking(t *testing.T) {
	e := multiPartEngine(t)

	// Root order is observed: marking this scan unordered is a
	// wrong-results bug and must be caught.
	ordered := buildPlan(t, e, `SELECT id FROM events`)
	var scan *ScanNode
	var find func(Node)
	find = func(n Node) {
		if s, ok := n.(*ScanNode); ok {
			scan = s
			return
		}
		for _, c := range planChildren(n) {
			find(c)
		}
	}
	find(ordered)
	if scan == nil {
		t.Fatal("no scan in plan")
	}
	err := checkPlan(ordered, map[Node]bool{scan: true})
	if err == nil || !strings.Contains(err.Error(), "order-sensitive consumer") {
		t.Errorf("over-marking: got %v, want order-sensitive consumer error", err)
	}

	// A global COUNT erases order: an empty marking means the ordered merge
	// is forced needlessly, which planck also reports.
	erased := buildPlan(t, e, `SELECT COUNT(*) FROM events`)
	err = checkPlan(erased, map[Node]bool{})
	if err == nil || !strings.Contains(err.Error(), "not marked") {
		t.Errorf("under-marking: got %v, want not-marked error", err)
	}
}

// TestUnorderedEligiblePathRules exercises the path classification directly
// on hand-built plans.
func TestUnorderedEligiblePathRules(t *testing.T) {
	e := multiPartEngine(t)
	tab, err := e.Catalog().Table("events")
	if err != nil {
		t.Fatal(err)
	}
	scan := func() *ScanNode { return &ScanNode{Table: tab, Columns: []string{"val"}} }
	global := func(in Node) *AggregateNode {
		return &AggregateNode{Input: in, Aggs: []AggSpec{{Name: "COUNT", Star: true}}, AggNames: []string{"c"}}
	}
	seq := &sqlast.FuncCall{Name: "SEQ8"}

	cases := []struct {
		name     string
		plan     func() (Node, *ScanNode)
		eligible bool
	}{
		{"agg over scan", func() (Node, *ScanNode) {
			s := scan()
			return global(s), s
		}, true},
		{"agg over sort", func() (Node, *ScanNode) {
			s := scan()
			return global(&SortNode{Input: s, Keys: []sqlast.OrderItem{{Expr: seq}}}), s
		}, true},
		{"agg over stateful filter", func() (Node, *ScanNode) {
			s := scan()
			return global(&FilterNode{Input: s, Cond: seq}), s
		}, false},
		{"agg over limit", func() (Node, *ScanNode) {
			s := scan()
			return global(&LimitNode{Input: s, N: 5}), s
		}, false},
		{"grouped agg", func() (Node, *ScanNode) {
			s := scan()
			return &AggregateNode{
				Input: s, GroupBy: []sqlast.Expr{&sqlast.ColRef{Name: "val"}},
				GroupNames: []string{"val"},
				Aggs:       []AggSpec{{Name: "COUNT", Star: true}}, AggNames: []string{"c"},
			}, s
		}, false},
		{"no aggregate", func() (Node, *ScanNode) {
			s := scan()
			return &FilterNode{Input: s, Cond: &sqlast.ColRef{Name: "val"}}, s
		}, false},
	}
	for _, c := range cases {
		root, s := c.plan()
		want := map[Node]bool{}
		if c.eligible {
			want[s] = true
		}
		if err := checkPlan(root, want); err != nil {
			t.Errorf("%s: eligible=%v rejected: %v", c.name, c.eligible, err)
		}
		wrong := map[Node]bool{}
		if !c.eligible {
			wrong[s] = true
		}
		if err := checkPlan(root, wrong); err == nil {
			t.Errorf("%s: inverted marking accepted", c.name)
		}
	}
}

// fakeNode is a plan node planck has no contract for.
type fakeNode struct{}

func (fakeNode) Schema() *Schema { return NewSchema(nil) }

func TestCheckSelContractRejectsUnknownNodes(t *testing.T) {
	err := checkPlan(fakeNode{}, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown plan node") {
		t.Errorf("got %v, want unknown-plan-node error", err)
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
