package engine_test

import (
	"strings"
	"testing"

	"jsonpark/internal/adl"
	"jsonpark/internal/core"
	"jsonpark/internal/engine"
	"jsonpark/internal/obsv"
)

// TestOptimizeRunsEachRuleOnce: a traced compile of generated ADL q6 — a
// nested query on which both discard rules run too — records one span per
// optimizer rule, in pipeline order.
func TestOptimizeRunsEachRuleOnce(t *testing.T) {
	sess, _, err := adl.Setup(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := adl.ByID("q6")
	res, err := core.Translate(sess, q.JSONiq, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := obsv.NewTracer(1).Start("q")
	if _, err := sess.Engine().PrepareOpts(res.SQL, engine.PrepareOptions{Span: tr.Root}); err != nil {
		t.Fatal(err)
	}
	var rules []string
	tr.Finish().Root.Walk(func(_ int, sd obsv.SpanData) {
		if name, ok := strings.CutPrefix(sd.Name, "rule."); ok {
			rules = append(rules, name)
		}
	})
	const want = "pushdown merge-projects simplify prune-columns top1 flatten-bound derive-prunes"
	if got := strings.Join(rules, " "); got != want {
		t.Errorf("rule spans %q, want %q", got, want)
	}
}
