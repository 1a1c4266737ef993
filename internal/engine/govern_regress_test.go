package engine

// Regression tests for governance defects surfaced by the dataflow-aware
// jsqlint analyzers (memcharge, ctxpoll): the CROSS-join build side was
// retained without ever charging the memory budget, and the spilled-agg
// merge and deferred-tuple replay loops drained whole runs without polling
// cancellation.

import (
	"context"
	"errors"
	"strings"
	"testing"

	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
)

// TestCrossJoinBuildCharged: the join build used to skip charging entirely for
// unkeyed joins, so a CROSS join's whole build side escaped the budget and
// MemPeakBytes read 0. The build side must now be charged (and released on
// Close) while output stays identical — CROSS joins still never spill.
func TestCrossJoinBuildCharged(t *testing.T) {
	mk := func(opts ...Option) *Engine {
		e := New(opts...)
		tab, err := e.Catalog().CreateTable("n", []string{"a"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if err := tab.Append([]variant.Value{variant.Int(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	sql := `SELECT "a", "b" FROM (SELECT "a" FROM "n" WHERE "a" < 3) CROSS JOIN (SELECT "a" AS "b" FROM "n") ORDER BY "a", "b"`
	ref, err := mk().Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mk(WithMemLimit(1 << 20)).Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRows(res), renderRows(ref); got != want {
		t.Fatalf("limited CROSS join changed rows:\n got %s\nwant %s", got, want)
	}
	if res.Metrics.MemPeakBytes == 0 {
		t.Fatal("CROSS join build side was never charged: MemPeakBytes = 0")
	}
}

// cancelledExecCtx returns an execContext whose query context is already
// cancelled.
func cancelledExecCtx() *execContext {
	qctx, cancel := context.WithCancel(context.Background())
	cancel()
	return &execContext{acct: &memAccountant{}, qctx: qctx}
}

// junkRun writes one opaque record to a spill run; cancellation must fire
// before the record is ever decoded.
func junkRun(t *testing.T) *storage.SpillRun {
	t.Helper()
	w, err := storage.NewRunWriter("cancel-regress")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteRecord([]byte("never decoded")); err != nil {
		w.Abort()
		t.Fatal(err)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestSpillMergeCancelled: the spilled-aggregate merge once drained every
// state run to completion with no cancellation poll; the ordered merge's
// state-run reader now aborts a cancelled query before decoding a single
// spilled group.
func TestSpillMergeCancelled(t *testing.T) {
	run := junkRun(t)
	defer run.Close()
	err := (&aggMerger{}).foldRun(cancelledExecCtx(), run, nil)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "query interrupted") {
		t.Fatalf("error %q is not classified as a query interruption", err)
	}
}

// TestDeferredReplayCancelled: replayTuples folded the entire deferral run
// with no poll; a cancelled query now aborts before touching a tuple.
func TestDeferredReplayCancelled(t *testing.T) {
	run := junkRun(t)
	defer run.Close()
	err := (&aggEval{}).replayTuples(cancelledExecCtx(), run, nil)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "query interrupted") {
		t.Fatalf("error %q is not classified as a query interruption", err)
	}
}
