package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// spillEngine builds a dataset sized so every breaker shape below crosses
// the small test budget: many groups, a wide join build side, and enough
// rows that sort input far exceeds 64KiB. Beside "t" it loads "dim", a fifth
// of t's rows — small enough that a join of dim to t builds dim — whose keys
// "dk" hit 600 of t's "v" values twice each and are NULL on every 13th row.
func spillEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e := New(opts...)
	tab, err := e.Catalog().CreateTable("t", []string{"k", "v", "f", "s"})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetTargetPartitionBytes(8192)
	for i := 0; i < 6000; i++ {
		if err := tab.Append([]variant.Value{
			variant.Int(int64(i % 53)),
			variant.Int(int64(i)),
			variant.Float(float64(i%977) / 13.0),
			variant.String(fmt.Sprintf("pad-%04d-%s", i%311, strings.Repeat("x", i%17))),
		}); err != nil {
			t.Fatal(err)
		}
	}
	dim, err := e.Catalog().CreateTable("dim", []string{"dk", "dn"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		dk := variant.Int(int64(i / 2 * 10))
		if i%13 == 0 {
			dk = variant.Null
		}
		if err := dim.Append([]variant.Value{dk, variant.String(fmt.Sprintf("dim-%04d-%s", i, strings.Repeat("y", 40)))}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// spillParityQueries exercises every spilling code path: mergeable
// aggregate state runs (COUNT/MIN/MAX/ARRAY_AGG/COUNT DISTINCT), the
// deferred-tuple replay path (float SUM/AVG), external sort-run merge,
// the offset-indexed join-build spill, and a left build's spilled build
// rows and matched right rows.
var spillParityQueries = []string{
	`SELECT "k", COUNT(*) AS c, MIN("v") AS mn, MAX("s") AS mx FROM "t" GROUP BY "k" ORDER BY "k"`,
	`SELECT "k", COUNT(DISTINCT "s") AS d, ARRAY_AGG("v") AS vs FROM "t" GROUP BY "k" ORDER BY "k"`,
	`SELECT "k", SUM("f") AS sf, AVG("f") AS af FROM "t" GROUP BY "k" ORDER BY "k"`,
	// Ordered ARRAY_AGG: its WITHIN GROUP keys travel in the state runs, and
	// (beside a float SUM) in the deferred tuples.
	`SELECT "k", ARRAY_AGG("v") WITHIN GROUP (ORDER BY "s" DESC, "v") AS vs FROM "t" GROUP BY "k" ORDER BY "k"`,
	`SELECT "k", SUM("f") AS sf, ARRAY_AGG(DISTINCT "v" % 7) WITHIN GROUP (ORDER BY "v" % 7 DESC) AS vs FROM "t" GROUP BY "k" ORDER BY "k"`,
	`SELECT "v", "s" FROM "t" ORDER BY "s", "v" DESC`,
	// A stateful key with many duplicate keys: SEQ8 numbers the rows once, in
	// input order, in memory and across spilled runs alike; ties keep input
	// order.
	`SELECT "k", "v", "s" FROM "t" ORDER BY "k", SEQ8() % 3 DESC`,
	`SELECT "v", "v2", "s2" FROM (SELECT "k", "v" FROM "t" WHERE "k" < 9) INNER JOIN (SELECT "v" AS "v2", "s" AS "s2", "k" AS "k2" FROM "t") ON "v" = "v2" ORDER BY "v"`,
	`SELECT "k2", COUNT(*) AS n FROM (SELECT "k", "v" FROM "t") LEFT OUTER JOIN (SELECT "v" AS "v2", "k" AS "k2" FROM "t" WHERE "k" = 3) ON "v" = "v2" GROUP BY "k2" ORDER BY "k2"`,
	dimFirstJoin,
}

// dimFirstJoin joins the small "dim" to "t": the row bounds (1200 ≤ 6000/4)
// build it left, and its output is left-major, without an ORDER BY.
const dimFirstJoin = `SELECT "dn", "v", "s" FROM (SELECT "dk", "dn" FROM "dim") INNER JOIN (SELECT "v", "s", "k" FROM "t") ON "dk" = "v"`

// TestSpillParityGrid is the governance acceptance grid: every query must
// produce rows byte-identical to the batch-size-1 sequential unlimited
// reference at every parallelism x batch-size x mem-limit combination, and
// the 64KiB column must actually spill somewhere in the suite.
func TestSpillParityGrid(t *testing.T) {
	type cfg struct {
		name       string
		batch, par int
		limit      int64
	}
	grid := []cfg{
		{"bs1-seq-unlimited", 1, 1, 0}, // reference
		{"bs1-seq-64k", 1, 1, 64 * 1024},
		{"bs1024-seq-64k", 1024, 1, 64 * 1024},
		{"bs1024-par2-64k", 1024, 2, 64 * 1024},
		{"bs1-par4-64k", 1, 4, 64 * 1024},
		{"bs1024-par4-64k", 1024, 4, 64 * 1024},
		{"bs1024-par4-unlimited", 1024, 4, 0},
	}
	want := make(map[string]string)
	for gi, g := range grid {
		e := spillEngine(t, WithBatchSize(g.batch), WithParallelism(g.par), WithMemLimit(g.limit))
		var spills int64
		for _, q := range spillParityQueries {
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("[%s] %s: %v", g.name, q, err)
			}
			spills += res.Metrics.Spills
			got := renderRows(res)
			if gi == 0 {
				want[q] = got
				continue
			}
			if got != want[q] {
				t.Errorf("[%s] %s: rows diverge from %s", g.name, q, grid[0].name)
			}
		}
		if g.limit > 0 && spills == 0 {
			t.Errorf("[%s] no query spilled under the 64KiB budget", g.name)
		}
		if g.limit == 0 && spills != 0 {
			t.Errorf("[%s] unlimited run reported %d spills", g.name, spills)
		}
	}
}

// TestSpillEveryBreakerSpills pins each breaker's spill path individually:
// per query, the operator stats must show Spills > 0 on the breaker the
// query was built to overflow.
func TestSpillEveryBreakerSpills(t *testing.T) {
	cases := []struct {
		sql string
		op  string // substring of the op name expected to spill
		// detail is a substring of the spilling operator's detail: each join
		// case pins its build side.
		detail string
	}{
		{`SELECT "k", COUNT(*) AS c FROM "t" GROUP BY "k"`, "Aggregate", ""},
		{`SELECT "v" FROM "t" ORDER BY "s", "v"`, "Sort", ""},
		{`SELECT "v" FROM (SELECT "k", "v" FROM "t" WHERE "k" < 2) INNER JOIN (SELECT "v" AS "v2", "s" AS "s2" FROM "t") ON "v" = "v2"`, "Join", "build=right rows=6000/6000"},
		{dimFirstJoin, "Join", "build=left rows=1200/6000"},
	}
	for _, par := range []int{1, 2, 4} {
		// 16KiB: small enough that even a single pruned int column (8 bytes
		// per row x 6000 rows) overflows on every breaker at any parallelism.
		e := spillEngine(t, WithParallelism(par), WithMemLimit(16*1024))
		for _, c := range cases {
			p, err := e.PrepareOpts(c.sql, PrepareOptions{Analyze: true})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Run(); err != nil {
				t.Fatalf("par=%d %s: %v", par, c.sql, err)
			}
			var spilled bool
			p.PlanStats().Walk(func(_ int, n *PlanStats) {
				if strings.Contains(n.Op, c.op) && strings.Contains(n.Detail, c.detail) && n.Spills > 0 {
					spilled = true
				}
			})
			if !spilled {
				t.Errorf("par=%d %s: no %s operator reported a spill\n%s",
					par, c.sql, c.op, p.PlanStats().Render())
			}
		}
	}
}

// TestOperatorMemPeakWithinQueryPeak: an operator's mem[peak=] is the most
// it held at once, so it can never exceed the query's own peak — including a
// fanned-out aggregate whose spans spill and release concurrently, and an
// exchange holding its workers' hand-off batches.
func TestOperatorMemPeakWithinQueryPeak(t *testing.T) {
	const exchangeQuery = `SELECT "rid", COUNT(*) FROM ` + ridFlatT + ` GROUP BY "rid"`
	for _, par := range []int{1, 4} {
		e := spillEngine(t, WithParallelism(par), WithMemLimit(16*1024))
		x := oneTableEngine(t, itemDocs(4000), 0, WithParallelism(par), WithMemLimit(16*1024))
		for _, q := range append(spillParityQueries, exchangeQuery) {
			eng := e
			if q == exchangeQuery {
				eng = x
			}
			p, err := eng.PrepareOpts(q, PrepareOptions{Analyze: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run()
			if err != nil {
				t.Fatalf("par=%d %s: %v", par, q, err)
			}
			sawExchange := false
			p.PlanStats().Walk(func(_ int, n *PlanStats) {
				sawExchange = sawExchange || n.Op == "Exchange"
				if n.MemPeakBytes > res.Metrics.MemPeakBytes {
					t.Errorf("par=%d %s: %s peak %d B exceeds the query's %d B",
						par, q, n.Op, n.MemPeakBytes, res.Metrics.MemPeakBytes)
				}
				// A fanned-out exchange charges its hand-off through its opMem
				// (one over a spilled join build stays sequential).
				if n.Op == "Exchange" && strings.HasPrefix(n.Detail, "workers=") && n.MemPeakBytes == 0 {
					t.Errorf("par=%d %s: the exchange reports no mem[peak=]\n%s", par, q, p.PlanStats().Render())
				}
			})
			if q == exchangeQuery && !sawExchange {
				t.Fatalf("par=%d: no Exchange in\n%s", par, p.PlanStats().Render())
			}
		}
	}
}

// TestSpillAnalyzeRender: EXPLAIN ANALYZE output gains a mem[...] clause on
// spilling operators, and the query metrics aggregate the governance
// counters.
func TestSpillAnalyzeRender(t *testing.T) {
	e := spillEngine(t, WithParallelism(4), WithMemLimit(16*1024))
	res, ps, err := e.QueryAnalyze(`SELECT "k", COUNT(*) AS c FROM "t" GROUP BY "k" ORDER BY "k"`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.Spills == 0 {
		t.Fatal("expected the 64KiB budget to force a spill")
	}
	if res.Metrics.SpillBytes == 0 {
		t.Fatal("spills reported but no spill bytes accounted")
	}
	if res.Metrics.MemPeakBytes == 0 {
		t.Fatal("no peak memory accounted")
	}
	if res.Metrics.MemLimitBytes != 16*1024 {
		t.Fatalf("limit %d not mirrored into metrics", res.Metrics.MemLimitBytes)
	}
	out := ps.Render()
	if !strings.Contains(out, "mem[peak=") || !strings.Contains(out, "spills=") {
		t.Fatalf("render lacks the mem[...] clause:\n%s", out)
	}
}

// TestSpillCleansTempFiles: every spill run must be unlinked by the time
// the query completes — including queries that error out mid-drain.
func TestSpillCleansTempFiles(t *testing.T) {
	countRuns := func() int {
		m, _ := filepath.Glob(filepath.Join(os.TempDir(), "jsonpark-spill-*"))
		return len(m)
	}
	before := countRuns()
	e := spillEngine(t, WithParallelism(4), WithMemLimit(32*1024))
	for _, q := range spillParityQueries {
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	// Abandoned mid-drain: prepared, one batch pulled, closed.
	for i := 0; i < 5; i++ {
		p, err := e.Prepare(spillParityQueries[i%len(spillParityQueries)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.iter.NextBatch(); err != nil {
			t.Fatal(err)
		}
		p.iter.Close()
	}
	if after := countRuns(); after > before {
		t.Fatalf("spill runs leaked: %d before, %d after", before, after)
	}
}

// countingIter counts Close calls to pin operator lifecycle contracts.
type countingIter struct {
	batches []*vector.Batch
	i       int
	closes  int
}

func (c *countingIter) NextBatch() (*vector.Batch, error) {
	if c.i >= len(c.batches) {
		return nil, nil
	}
	b := c.batches[c.i]
	c.i++
	return b, nil
}

func (c *countingIter) Close() { c.closes++ }

// TestJoinCloseIdempotent is the regression test for the joinIter
// double-close: build() consumes and closes the build side, so a
// subsequent Close (or two — drivers may Close an iterator repeatedly)
// must not close the right side again, and the probe side must be closed
// exactly once.
func TestJoinCloseIdempotent(t *testing.T) {
	mkBatch := func(vals ...int64) *vector.Batch {
		b := &vector.Batch{Cols: make([][]variant.Value, 2)}
		for _, v := range vals {
			b.Cols[0], b.Cols[1] = append(b.Cols[0], variant.Int(v)), append(b.Cols[1], variant.Int(v*10))
		}
		return b
	}
	newJoin := func() (*joinIter, *countingIter, *countingIter) {
		ctx := &execContext{acct: &memAccountant{}, batchSize: 4}
		left := &countingIter{batches: []*vector.Batch{mkBatch(1, 2, 3)}}
		right := &countingIter{batches: []*vector.Batch{mkBatch(2, 3, 4)}}
		j := newJoinIter(ctx, "CROSS", left, right, joinExprs{}, 2, 2, ctx.opMemFor(nil))
		return j, left, right
	}

	// Close before any NextBatch: both sides closed exactly once even when
	// Close is called twice.
	j, left, right := newJoin()
	j.Close()
	j.Close()
	if left.closes != 1 || right.closes != 1 {
		t.Fatalf("pre-build double Close: left=%d right=%d closes, want 1/1", left.closes, right.closes)
	}

	// Build consumed the right side; Close afterwards must not double-close.
	j, left, right = newJoin()
	if err := j.build(); err != nil {
		t.Fatal(err)
	}
	if right.closes != 1 {
		t.Fatalf("build closed right side %d times, want 1", right.closes)
	}
	j.Close()
	j.Close()
	if left.closes != 1 || right.closes != 1 {
		t.Fatalf("post-build double Close: left=%d right=%d closes, want 1/1", left.closes, right.closes)
	}
}

// TestSortNaNIsTotallyOrdered pins variant.Compare's total order on NaN
// (Snowflake's rule: NaN equals NaN and sorts above +Inf). Over 400 rows
// whose negative "v" make SQRT("v") NaN, the in-memory stable sort and the
// spilled-run merge must return the same order — they did not while NaN
// compared equal to every number — with every NaN row last, in input order.
func TestSortNaNIsTotallyOrdered(t *testing.T) {
	const sql = `SELECT "id" FROM "t" ORDER BY SQRT("v")`
	load := func(opts ...Option) *Engine {
		e := New(opts...)
		tab, err := e.Catalog().CreateTable("t", []string{"id", "v"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 400; i++ {
			if err := tab.Append([]variant.Value{variant.Int(int64(i)), variant.Int(int64(i*37%101 - 20))}); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	want := renderRows(mustQuery(t, load(), sql))
	res := mustQuery(t, load(WithMemLimit(2<<10)), sql)
	if res.Metrics.Spills == 0 {
		t.Fatal("the limited sort did not spill")
	}
	if got := renderRows(res); got != want {
		t.Fatalf("spilled sort diverges from the in-memory one\ngot:\n%s\nwant:\n%s", got, want)
	}
	var nan []string
	for i := 0; i < 400; i++ {
		if i*37%101-20 < 0 {
			nan = append(nan, fmt.Sprintf("%d\t", i))
		}
	}
	if tail := strings.Join(nan, "\n") + "\n"; !strings.HasSuffix(want, tail) {
		t.Errorf("the NaN rows are not last, in input order:\n%s", want)
	}
}
