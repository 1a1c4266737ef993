package engine

import (
	"fmt"
	"strings"
	"testing"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// multiPartEngine builds an engine whose "events" table spans many small
// micro-partitions, so parallel morsel scans have real work to split.
func multiPartEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e := New(opts...)
	tab, err := e.Catalog().CreateTable("events", []string{"id", "grp", "val", "items"})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetTargetPartitionBytes(512) // force frequent sealing
	for i := 0; i < 500; i++ {
		items := "[]"
		if i%3 != 0 {
			items = fmt.Sprintf("[%d, %d, %d]", i, i*2, i*3)
		}
		doc := fmt.Sprintf(`{"id": %d, "grp": %d, "val": %g, "items": %s}`,
			i, i%7, float64(i%50)/3.0, items)
		if err := tab.AppendObject(variant.MustParseJSON(doc)); err != nil {
			t.Fatal(err)
		}
	}
	// "dim" is small enough beside events that a join of the two builds it:
	// keys 0..8, NULL on every seventh row.
	dim, err := e.Catalog().CreateTable("dim", []string{"dk", "dn"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		dk := variant.Int(int64(i % 9))
		if i%7 == 0 {
			dk = variant.Null
		}
		if err := dim.Append([]variant.Value{dk, variant.String(fmt.Sprintf("n%d", i))}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func renderRows(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		for _, v := range row {
			b.WriteString(v.JSON())
			b.WriteByte('\t')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

var parityQueries = []string{
	`SELECT id, val FROM events WHERE grp = 3`,
	`SELECT grp, COUNT(*), MIN(val), MAX(val) FROM events GROUP BY grp`,
	`SELECT COUNT(*) FROM events WHERE val > 10`,
	`SELECT SUM(val) FROM events`,
	`SELECT "id", "f".VALUE FROM (SELECT * FROM "events" WHERE "grp" < 3), LATERAL FLATTEN(INPUT => "items") AS "f"`,
	`SELECT "id", "f".VALUE FROM (SELECT * FROM "events"), LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f" WHERE "id" < 20`,
	`SELECT id FROM events ORDER BY val DESC LIMIT 17`,
	`SELECT grp, SUM(val) FROM events GROUP BY grp ORDER BY grp`,
	`SELECT "id", "oid" FROM (SELECT * FROM "events" WHERE "id" < 7) CROSS JOIN (SELECT "id" AS "oid", "grp" AS "ogrp" FROM "events") WHERE "id" = "ogrp"`,
	`SELECT CASE WHEN val > 0 THEN 100 / val ELSE -1 END FROM events WHERE id < 40`,
}

// TestBatchSizeAndParallelismParity is the core regression for the
// vectorized executor: every configuration (batch size 1, 7, 1024; scans
// sequential and parallel) must return rows byte-identical to every other.
func TestBatchSizeAndParallelismParity(t *testing.T) {
	type config struct {
		name string
		opts []Option
	}
	configs := []config{
		{"bs1-seq", []Option{WithBatchSize(1), WithParallelism(1)}},
		{"bs7-seq", []Option{WithBatchSize(7), WithParallelism(1)}},
		{"bs1024-seq", []Option{WithBatchSize(1024), WithParallelism(1)}},
		{"bs1024-par4", []Option{WithBatchSize(1024), WithParallelism(4)}},
		{"bs3-par4", []Option{WithBatchSize(3), WithParallelism(4)}},
	}
	engines := make([]*Engine, len(configs))
	for i, c := range configs {
		engines[i] = multiPartEngine(t, c.opts...)
	}
	for _, sql := range parityQueries {
		var want string
		for i, c := range configs {
			res, err := engines[i].Query(sql)
			if err != nil {
				t.Fatalf("%s [%s]: %v", sql, c.name, err)
			}
			got := renderRows(res)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s: config %s diverges from %s\ngot:\n%s\nwant:\n%s",
					sql, c.name, configs[0].name, got, want)
			}
		}
	}
}

// TestStableOrderByDuplicateKeys pins the ORDER BY tie-breaking contract:
// rows with equal sort keys come back in input order, for every batch size
// and with parallel scans (whose ordered merge must preserve input order).
func TestStableOrderByDuplicateKeys(t *testing.T) {
	for _, opts := range [][]Option{
		{WithBatchSize(1), WithParallelism(1)},
		{WithBatchSize(1024), WithParallelism(1)},
		{WithBatchSize(16), WithParallelism(4)},
	} {
		e := New(opts...)
		tab, err := e.Catalog().CreateTable("t", []string{"id", "k"})
		if err != nil {
			t.Fatal(err)
		}
		tab.SetTargetPartitionBytes(256)
		// Many duplicate keys: k cycles 0,1,2; id records insertion order.
		for i := 0; i < 200; i++ {
			if err := tab.Append([]variant.Value{variant.Int(int64(i)), variant.Int(int64(i % 3))}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Query(`SELECT id, k FROM t ORDER BY k`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 200 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
		prevK, prevID := int64(-1), int64(-1)
		for _, row := range res.Rows {
			id, k := row[0].AsInt(), row[1].AsInt()
			if k < prevK {
				t.Fatalf("sort order broken: k %d after %d", k, prevK)
			}
			if k == prevK && id < prevID {
				t.Fatalf("stability broken: id %d after %d within k=%d", id, prevID, k)
			}
			if k != prevK {
				prevID = -1
			}
			prevK, prevID = k, id
		}
	}
}

// TestLimitClosesParallelScan exercises early termination: LIMIT stops
// consuming while morsel workers are still producing; Close must shut the
// pool down without deadlock (the race detector guards the rest).
func TestLimitClosesParallelScan(t *testing.T) {
	e := multiPartEngine(t, WithBatchSize(4), WithParallelism(8))
	for i := 0; i < 10; i++ {
		res, err := e.Query(`SELECT id FROM events LIMIT 3`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
		// LIMIT over an unsorted scan surfaces stream order: with the
		// ordered merge this is the insertion order, deterministically.
		for j, row := range res.Rows {
			if row[0].AsInt() != int64(j) {
				t.Fatalf("row %d = %v; ordered merge broken", j, row)
			}
		}
	}
}

// cycleIter replays its batches forever, like a scan over stable chunk
// views that never runs dry.
type cycleIter struct {
	batches []*vector.Batch
	i       int
}

func (c *cycleIter) NextBatch() (*vector.Batch, error) {
	b := c.batches[c.i%len(c.batches)]
	c.i++
	return b, nil
}

func (c *cycleIter) Close() {}

// TestStreamingPipelineAllocatesNothingPerBatch pins the batch-lifetime
// contract's payoff: a scan→FLATTEN→project→filter pipeline owns every
// header, selection, register and gathered column it emits and recycles them
// on its next NextBatch, so once warm it allocates nothing — not per row,
// not per batch. The expressions cover the lazy operators (AND, OR, CASE),
// whose selection scratch and sub-batch headers live on their DAG instance.
// Its join subtest does the same for a scan→join→project pipeline.
func TestStreamingPipelineAllocatesNothingPerBatch(t *testing.T) {
	const inRows, fanOut, batchSize = 512, 8, 256
	var src []*vector.Batch
	for part := 0; part < 3; part++ {
		ids := make([]variant.Value, inRows)
		items := make([]variant.Value, inRows)
		for i := range ids {
			elems := make([]variant.Value, (i+part)%fanOut) // includes empty arrays
			for k := range elems {
				elems[k] = variant.Int(int64(i*fanOut + k))
			}
			ids[i], items[i] = variant.Int(int64(i)), variant.ArrayOf(elems)
		}
		src = append(src, &vector.Batch{Cols: [][]variant.Value{ids, items}})
	}
	val, idx := &sqlast.ColRef{Table: "f", Name: "VALUE"}, &sqlast.ColRef{Table: "f", Name: "INDEX"}
	lit := func(i int64) sqlast.Expr { return sqlast.L(variant.Int(i)) }
	inSchema := NewSchema([]string{"id", "items"})
	flatSchema := inSchema.Extend("f.VALUE", "f.INDEX")
	outSchema := NewSchema([]string{"id", "v", "c"})
	must := func(d *exprDAG, err error) *exprDAG {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	input := must(compileVec(nil, nil, inSchema, sqlast.C("items")))
	list := must(compileVecs(nil, nil, flatSchema, []sqlast.Expr{
		sqlast.C("id"),
		sqlast.B("+", sqlast.B("*", val, lit(2)), idx),
		&sqlast.CaseWhen{
			Whens: []sqlast.WhenClause{{Cond: sqlast.B("=", sqlast.B("%", val, lit(3)), lit(0)), Result: sqlast.B("*", val, lit(2))}},
			Else:  lit(-1),
		},
	}))
	cond := must(compileVec(nil, nil, outSchema, sqlast.B("OR",
		sqlast.B("AND", sqlast.B(">", sqlast.C("v"), lit(10)), sqlast.B("<>", sqlast.C("c"), lit(-1))),
		sqlast.B("<", sqlast.C("id"), lit(3)))))
	var it batchIter = &cycleIter{batches: src}
	it = newFlattenIter(it, input, false, false, 2, batchSize)
	it = &projectIter{in: it, dag: list}
	it = &filterIter{in: it, cond: cond}

	rows := 0
	pull := func() {
		b, err := it.NextBatch()
		if err != nil || b == nil {
			t.Fatalf("pipeline stopped: %v %v", b, err)
		}
		rows += b.NumRows()
	}
	for i := 0; i < 64; i++ { // warm-up: registers, columns and scratch reach their size
		pull()
	}
	if rows == 0 {
		t.Fatal("filter passed no rows; the test exercises nothing")
	}
	if allocs := testing.AllocsPerRun(200, pull); allocs != 0 {
		t.Errorf("steady-state pipeline allocates %.1f times per batch, want 0", allocs)
	}
	t.Run("join", streamingJoinAllocatesNothing)
	t.Run("join-dup", func(t *testing.T) { gatheringJoinAllocatesNothing(t, false, false) })
	t.Run("join-left", func(t *testing.T) { gatheringJoinAllocatesNothing(t, true, false) })
	t.Run("join-dup-typed", func(t *testing.T) { gatheringJoinAllocatesNothing(t, false, true) })
	t.Run("join-left-build", func(t *testing.T) { gatheringJoinAllocatesNothing(t, true, true) })
}

// gatheringJoinAllocatesNothing extends the contract to the joins that
// gather their output (emit): a right build with duplicate keys, and a left
// build, whose probe replays its stored left rows and walks each key's
// matched right rows. Either way the pairs' columns go into registers the
// join recycles, and the batch boundaries stay where the pairs cut them, so
// once warm a scan→join→project pipeline allocates nothing per batch. The
// right build is INNER with a residual over both sides; a left build has
// none (chooseBuild). With typed, the second columns are typed too — the
// strings a plain string column, the floats a float column — so the pairs
// gather every column into typed registers, strings included.
func gatheringJoinAllocatesNothing(t *testing.T, buildLeft, typed bool) {
	const batchSize = 16
	// probe-side rows: key i%200 and a string; build-side rows: key j%100
	// (each key six times) and a float.
	mk := func(n, lo int, key func(i int) int64, second func(i int) variant.Value) *vector.Batch {
		keys, extra := make([]int64, n), make([]variant.Value, n)
		for i := range keys {
			keys[i], extra[i] = key(lo+i), second(lo+i)
		}
		b := &vector.Batch{Cols: [][]variant.Value{nil, extra}, Typed: []*vector.TypedCol{vector.NewInt64Col(keys, nil), nil}}
		if typed {
			b.Cols[1], b.Typed[1] = nil, typedOf(extra)
		}
		return b
	}
	var probe, build []*vector.Batch
	for lo := 0; lo < 2400; lo += 100 {
		probe = append(probe, mk(100, lo, func(i int) int64 { return int64(i % 200) }, func(i int) variant.Value { return variant.String(fmt.Sprintf("p%d", i)) }))
	}
	for lo := 0; lo < 600; lo += 100 {
		build = append(build, mk(100, lo, func(i int) int64 { return int64(i % 100) }, func(i int) variant.Value { return variant.Float(float64(i) / 4) }))
	}
	must := func(d *exprDAG, err error) *exprDAG {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	left, right := NewSchema([]string{"k", "p"}), NewSchema([]string{"bk", "bv"})
	joined := NewSchema([]string{"k", "p", "bk", "bv"})
	exprs := joinExprs{
		left:  must(compileVecs(nil, nil, left, []sqlast.Expr{sqlast.C("k")})),
		right: must(compileVecs(nil, nil, right, []sqlast.Expr{sqlast.C("bk")})),
	}
	ctx := &execContext{acct: &memAccountant{}, batchSize: batchSize}
	var j *joinIter
	if buildLeft {
		// The left input is the build, drained once, so the pipeline runs
		// until its output runs out: 600 left rows × 12 matches each.
		j = newJoinIter(ctx, "INNER", &staticBatches{batches: build}, &staticBatches{batches: probe}, exprs, 2, 2, ctx.opMemFor(nil))
		j.buildLeft = true
		j.right = &matchIter{in: j.right, b: &j.joinBuilt, keys: j.exprs.right}
	} else {
		exprs.residual = must(compileVec(nil, nil, joined, sqlast.B("<>", sqlast.B("%", sqlast.C("k"), sqlast.L(variant.Int(3))), sqlast.L(variant.Int(1)))))
		j = newJoinIter(ctx, "INNER", &cycleIter{batches: probe}, &staticBatches{batches: build}, exprs, 2, 2, ctx.opMemFor(nil))
		j.probe.residual = exprs.residual
	}
	defer j.Close()
	var it batchIter = &projectIter{in: j, dag: must(compileVecs(nil, nil, joined, []sqlast.Expr{
		sqlast.C("p"), sqlast.C("bv"), sqlast.B("+", sqlast.C("bk"), sqlast.C("k")),
	}))}
	rows := 0
	pull := func() {
		b, err := it.NextBatch()
		if err != nil || b == nil {
			t.Fatalf("pipeline stopped: %v %v", b, err)
		}
		rows += b.NumRows()
	}
	for i := 0; i < 64; i++ { // warm-up: registers, pair scratch and selections reach their size
		pull()
	}
	if j.stream || !j.table.dup && !buildLeft || rows == 0 {
		t.Fatalf("stream=%v dup=%v rows=%d: the pipeline does not exercise the gathering probe", j.stream, j.table.dup, rows)
	}
	if out := &j.probe.out; typed && (out.Typed[1] == nil || out.Typed[3] == nil) {
		t.Fatalf("typed inputs gathered into variant registers: %v", out.Typed)
	}
	if allocs := testing.AllocsPerRun(200, pull); allocs != 0 {
		t.Errorf("steady-state join pipeline allocates %.1f times per batch, want 0", allocs)
	}
}

// typedOf is vals — strings or floats — as one typed column.
func typedOf(vals []variant.Value) *vector.TypedCol {
	if vals[0].Kind() == variant.KindString {
		strs := make([]string, len(vals))
		for i, v := range vals {
			strs[i] = v.AsString()
		}
		return vector.NewStringCol(strs, nil)
	}
	floats := make([]float64, len(vals))
	for i, v := range vals {
		floats[i] = v.AsFloat()
	}
	return vector.NewFloat64Col(floats, nil)
}

// streamingJoinAllocatesNothing extends the contract to the hash join: a
// scan→join→project pipeline over a unique numeric build — typed
// int64 keys on both sides, a typed float, a typed int and a variant string
// build column — probes through emitStream, which emits the probe batch's
// own columns under its selection and gathers the build columns into
// registers it recycles, so once warm it allocates nothing per batch. The
// join is LEFT OUTER with a residual, so misses and failed candidates pad
// the build registers with NULLs.
func streamingJoinAllocatesNothing(t *testing.T) {
	const probeRows, buildRows, batchSize = 512, 300, 256
	var src []*vector.Batch
	for part := 0; part < 3; part++ {
		keys, ids := make([]int64, probeRows), make([]variant.Value, probeRows)
		for i := range keys {
			keys[i] = int64((i*7 + part) % (2 * buildRows)) // half the keys miss
			ids[i] = variant.Int(int64(part*probeRows + i))
		}
		src = append(src, &vector.Batch{Cols: [][]variant.Value{nil, ids}, Typed: []*vector.TypedCol{vector.NewInt64Col(keys, nil), nil}})
	}
	var build []*vector.Batch
	for lo := 0; lo < buildRows; lo += 100 {
		keys, vals, ns := make([]int64, 100), make([]float64, 100), make([]int64, 100)
		names := make([]variant.Value, 100)
		for i := range keys {
			keys[i], vals[i], ns[i] = int64(lo+i), float64(lo+i)/4, int64(lo+i)%5
			names[i] = variant.String(fmt.Sprintf("b%d", lo+i))
		}
		build = append(build, &vector.Batch{
			Cols:  [][]variant.Value{nil, nil, nil, names},
			Typed: []*vector.TypedCol{vector.NewInt64Col(keys, nil), vector.NewFloat64Col(vals, nil), vector.NewInt64Col(ns, nil), nil},
		})
	}
	must := func(d *exprDAG, err error) *exprDAG {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	lit := func(i int64) sqlast.Expr { return sqlast.L(variant.Int(i)) }
	left, right := NewSchema([]string{"k", "id"}), NewSchema([]string{"bk", "bv", "bn", "bs"})
	joined := NewSchema([]string{"k", "id", "bk", "bv", "bn", "bs"})
	ctx := &execContext{acct: &memAccountant{}, batchSize: batchSize}
	j := newJoinIter(ctx, "LEFT OUTER", &cycleIter{batches: src}, &staticBatches{batches: build}, joinExprs{
		left:     must(compileVecs(nil, nil, left, []sqlast.Expr{sqlast.C("k")})),
		right:    must(compileVecs(nil, nil, right, []sqlast.Expr{sqlast.C("bk")})),
		residual: must(compileVec(nil, nil, joined, sqlast.B("<>", sqlast.B("%", sqlast.C("id"), lit(3)), sqlast.C("bn")))),
	}, 2, 4, ctx.opMemFor(nil))
	defer j.Close()
	var it batchIter = &projectIter{in: j, dag: must(compileVecs(nil, nil, joined, []sqlast.Expr{
		sqlast.C("id"), sqlast.B("+", sqlast.C("bv"), sqlast.C("k")), sqlast.C("bs"),
	}))}

	rows, padded := 0, 0
	pull := func() {
		b, err := it.NextBatch()
		if err != nil || b == nil {
			t.Fatalf("pipeline stopped: %v %v", b, err)
		}
		rows += b.NumRows()
		b.ForEach(func(i int) {
			if b.Value(2, i).IsNull() {
				padded++
			}
		})
	}
	for i := 0; i < 64; i++ { // warm-up: registers, selections and scratch reach their size
		pull()
	}
	if !j.stream || rows == 0 || padded == 0 || padded == rows {
		t.Fatalf("stream=%v rows=%d padded=%d: the pipeline does not exercise the streaming probe", j.stream, rows, padded)
	}
	if allocs := testing.AllocsPerRun(200, pull); allocs != 0 {
		t.Errorf("steady-state join pipeline allocates %.1f times per batch, want 0", allocs)
	}
}
