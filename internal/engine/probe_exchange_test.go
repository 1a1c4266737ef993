package engine

import (
	"fmt"
	"strings"
	"testing"

	"jsonpark/internal/variant"
)

// probeEngine loads "t" — n rows in ONE storage partition, so only the
// exchange's morsels fan it out — and three dimensions: d1 misses every
// sixth key of k1, d2 holds two rows for every third key of k2 (a duplicate
// key: the join gathers through emit), d3 one per k3 key. bad[i] replaces
// row i of "t" with a document whose "v" is a string, so v + 1 fails there.
func probeEngine(t testing.TB, n, morselRows int, bad map[int]bool, opts ...Option) *Engine {
	t.Helper()
	e := New(opts...)
	e.morselRows = morselRows
	load := func(name string, cols []string, docs []string) {
		tab, err := e.Catalog().CreateTable(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		tab.SetTargetPartitionBytes(1 << 40)
		for _, d := range docs {
			if err := tab.AppendObject(variant.MustParseJSON(d)); err != nil {
				t.Fatal(err)
			}
		}
	}
	docs := make([]string, n)
	for i := range docs {
		v := fmt.Sprint(i * 3 % 101)
		if bad[i] {
			v = `"x"`
		}
		docs[i] = fmt.Sprintf(`{"id": %d, "k1": %d, "k2": %d, "k3": %d, "v": %s}`, i, i%37, i%11, i%5, v)
	}
	load("t", []string{"id", "k1", "k2", "k3", "v"}, docs)
	var d1, d2, d3 []string
	for k := 0; k < 37; k++ {
		if k%6 != 5 {
			d1 = append(d1, fmt.Sprintf(`{"d1k": %d, "a": "a%d"}`, k, k))
		}
	}
	for k := 0; k < 11; k++ {
		d2 = append(d2, fmt.Sprintf(`{"d2k": %d, "b": %d}`, k, k*10))
		if k%3 == 0 {
			d2 = append(d2, fmt.Sprintf(`{"d2k": %d, "b": %d}`, k, k*10+1))
		}
	}
	for k := 0; k < 5; k++ {
		d3 = append(d3, fmt.Sprintf(`{"d3k": %d, "c": %g}`, k, float64(k)/2))
	}
	load("d1", []string{"d1k", "a"}, d1)
	load("d2", []string{"d2k", "b"}, d2)
	load("d3", []string{"d3k", "c"}, d3)
	return e
}

// probeChain is a three-join probe chain over "t": a unique join, a
// duplicate-key join, and a LEFT OUTER join with a residual, under one
// exchange.
const probeChain = `SELECT id, v + 1 AS w, a, b, c FROM t
  INNER JOIN d1 ON k1 = d1k
  INNER JOIN d2 ON k2 = d2k
  LEFT OUTER JOIN d3 ON k3 = d3k AND c > id % 3`

// TestProbeExchangeParity: the probe chain — both of whose INNER joins may
// build either side — is byte-identical to the unpoisoned sequential run at
// every batch size × parallelism × build side, with recycled storage
// poisoned and planck on, and at parallelism > 1 the exchange above it fans
// out (over morsels of 256 rows, rounded up to whole batches).
func TestProbeExchangeParity(t *testing.T) {
	want := renderRows(mustQuery(t, probeEngine(t, 3000, 0, nil, WithParallelism(1)), probeChain))
	if strings.Count(want, "\n") < 3000 {
		t.Fatalf("the chain returns %d rows; the data pins too little", strings.Count(want, "\n"))
	}
	poisonRecycling(t)
	for _, bs := range []int{1, 7, 1024} {
		for _, par := range []int{1, 2, 4} {
			for _, side := range []buildSide{buildAuto, buildRight, buildLeft} {
				e := probeEngine(t, 3000, 256, nil, WithBatchSize(bs), WithParallelism(par), planChecked())
				e.forceBuild = side
				res, ps, err := e.QueryAnalyze(probeChain)
				if err != nil {
					t.Fatalf("bs=%d par=%d side=%d: %v", bs, par, side, err)
				}
				if got := renderRows(res); got != want {
					t.Errorf("bs=%d par=%d side=%d: rows diverge from the sequential run", bs, par, side)
				}
				if d := exchangeDetail(ps); par > 1 && !strings.HasPrefix(d, "workers=") {
					t.Errorf("bs=%d par=%d side=%d: exchange %q did not fan out", bs, par, side, d)
				}
			}
		}
	}
}

// TestProbeExchangeAnalyzeSumsWorkers: EXPLAIN ANALYZE of a fanned-out
// probe chain prints the exchange's workers and morsels, and each join
// line's rows, batches and typed= counter — summed over the workers — read
// exactly what the sequential run's do: the workers' batches are the
// sequential ones, cut at the same rows.
func TestProbeExchangeAnalyzeSumsWorkers(t *testing.T) {
	joins := func(ps *PlanStats) []string {
		var out []string
		ps.Walk(func(_ int, n *PlanStats) {
			if strings.HasSuffix(n.Op, "Join") {
				out = append(out, fmt.Sprintf("%s out=%d batches=%d typed=%d fallback=%d", n.Op, n.RowsOut, n.Batches, n.ExprTyped, n.ExprFallback))
			}
		})
		return out
	}
	_, seq, err := probeEngine(t, 5000, 0, nil, WithParallelism(1)).QueryAnalyze(probeChain)
	if err != nil {
		t.Fatal(err)
	}
	_, par, err := probeEngine(t, 5000, 0, nil, WithParallelism(2)).QueryAnalyze(probeChain)
	if err != nil {
		t.Fatal(err)
	}
	if got := exchangeDetail(par); got != "workers=2 morsels=5" {
		t.Errorf("exchange %q, want workers=2 morsels=5\n%s", got, par.Render())
	}
	if got := exchangeDetail(seq); got != "sequential: parallelism 1" {
		t.Errorf("sequential exchange %q", got)
	}
	want, got := joins(seq), joins(par)
	if len(want) != 3 || strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("join lines at parallelism 2:\n%s\nwant the sequential run's:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, j := range want {
		if strings.Contains(j, "typed=0 ") {
			t.Errorf("%s: no typed key read; the counters pin nothing", j)
		}
	}
}

// TestProbeRowIDStaysOnDriver: a join whose key or residual reads a row ID
// of the segment below it, or that carries one through it, keeps its probe
// on the driver — a worker's counter restarts per morsel and is renumbered
// only at release — and EXPLAIN ANALYZE says why on the join line. The rows
// match the sequential run's at any parallelism.
func TestProbeRowIDStaysOnDriver(t *testing.T) {
	for _, c := range []struct{ sql, why string }{
		{`SELECT rid, a FROM (SELECT SEQ8() AS rid, k1 FROM t) INNER JOIN d1 ON rid = d1k`, "row id in join key"},
		{`SELECT rid, c FROM (SELECT SEQ8() AS rid, k3 FROM t) LEFT OUTER JOIN d3 ON k3 = d3k AND c > rid % 3`, "row id in join residual"},
		{`SELECT rid, a FROM (SELECT SEQ8() AS rid, k1 FROM t) INNER JOIN d1 ON k1 = d1k`, "row id in join input"},
	} {
		want := renderRows(mustQuery(t, probeEngine(t, 3000, 0, nil, WithParallelism(1)), c.sql))
		res, ps, err := probeEngine(t, 3000, 256, nil, WithParallelism(4), WithBatchSize(64)).QueryAnalyze(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if renderRows(res) != want {
			t.Errorf("%s: rows diverge from the sequential run", c.sql)
		}
		var detail string
		ps.Walk(func(_ int, n *PlanStats) {
			if strings.HasSuffix(n.Op, "Join") {
				detail = n.Detail
			}
		})
		if !strings.HasSuffix(detail, "sequential: "+c.why) {
			t.Errorf("%s: join line %q does not say %q\n%s", c.sql, detail, c.why, ps.Render())
		}
		if d := exchangeDetail(ps); d != "<no exchange>" {
			t.Errorf("%s: the probe joined a segment: exchange %q", c.sql, d)
		}
	}
}

// TestProbeExchangeBuildErrorFirst pins joinIter.build's error order under
// fan-out: a build input that fails is reported before any streamed row —
// here before the streamed side's own failure — as the sequential join
// reports it, for either build side.
func TestProbeExchangeBuildErrorFirst(t *testing.T) {
	bad := map[int]bool{2500: true}
	// d2's b + 'x' fails on every build row; "t"'s v + 1 fails at row 2500.
	sql := `SELECT id, v + 1 AS w, a, e FROM t
	  INNER JOIN d1 ON k1 = d1k
	  INNER JOIN (SELECT d2k, b + 'x' AS e FROM d2) ON k2 = d2k`
	_, want := probeEngine(t, 3000, 0, bad, WithParallelism(1)).Query(sql)
	if want == nil {
		t.Fatal("the sequential run did not fail")
	}
	for _, bs := range []int{7, 1024} {
		for _, par := range []int{1, 2, 4} {
			for _, side := range []buildSide{buildRight, buildLeft} {
				e := probeEngine(t, 3000, 256, bad, WithBatchSize(bs), WithParallelism(par))
				e.forceBuild = side
				if _, err := e.Query(sql); err == nil || err.Error() != want.Error() {
					t.Errorf("bs=%d par=%d side=%d: got %v, want %v", bs, par, side, err, want)
				}
			}
		}
	}
}

// TestProbeExchangeStreamedErrorInRowOrder: with failing streamed rows in
// two morsels, the one earlier in row order surfaces, after the rows before
// it, with the sequential message, whichever worker gets there first; a
// LIMIT met before either succeeds.
func TestProbeExchangeStreamedErrorInRowOrder(t *testing.T) {
	bad := map[int]bool{1700: true, 2600: true}
	_, want := probeEngine(t, 3000, 0, bad, WithParallelism(1)).Query(probeChain)
	if want == nil || !strings.Contains(want.Error(), "VARCHAR") {
		t.Fatalf("sequential error: %v", want)
	}
	for _, bs := range []int{7, 1024} {
		for _, par := range []int{2, 4} {
			for _, side := range []buildSide{buildRight, buildLeft} {
				e := probeEngine(t, 3000, 256, bad, WithBatchSize(bs), WithParallelism(par))
				e.forceBuild = side
				if _, err := e.Query(probeChain); err == nil || err.Error() != want.Error() {
					t.Errorf("bs=%d par=%d side=%d: got %v, want %v", bs, par, side, err, want)
				}
				res, err := e.Query(probeChain + ` LIMIT 10`)
				if err != nil || len(res.Rows) != 10 {
					t.Errorf("bs=%d par=%d side=%d LIMIT 10: %v rows, err %v", bs, par, side, res, err)
				}
			}
		}
	}
}
