package engine

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"jsonpark/internal/storage"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// FuzzPlanDiff is the differential governance fuzzer: the input bytes seed
// a deterministic generator that produces (a) a nested dataset and (b) one
// query per pipeline shape — scan→filter, group, sort, join, LATERAL
// FLATTEN, the row-ID re-aggregate, the row-ID self-join that joins a
// re-aggregate back to its row IDs, and a join on computed keys of every
// class the join table tells apart — each with randomized predicates,
// residuals, aggregate lists, sort directions, and limits. The oracle is the
// sequential unlimited engine with every aggregate on the hash table and
// every join keyed by bytes; every other (batch size, parallelism, mem-limit, morsel) cell runs under
// planck and must render byte-identical rows, and the limited cells must
// never error. The ingest
// cells add a streaming dimension: they load a prefix of the dataset, warm
// the result cache (and a materialized view when the group query is
// mergeable), append the remaining documents mid-run, and must still match
// the oracle's cold recompute over the full dataset — cached and
// incrementally refreshed results included, and again after the table is
// dropped and recreated with the full data. The build-side dimension runs
// every join shape, and a dimension-first join the default rule builds left,
// with the build forced left and forced right (checkBuildSides): same rows,
// same order, same error. Running the seed corpus as a
// plain unit test (`go test`) already covers every shape;
// `go test -fuzz=FuzzPlanDiff` explores the generator space further.
func FuzzPlanDiff(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte("governed"))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})
	f.Add([]byte("spill the breakers"))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte("jsoniq on snowpark"))
	// Joins with a residual over both sides that keep rows: LEFT OUTER (with
	// NULL-padded rows) and INNER.
	f.Add([]byte("residual 2"))
	f.Add([]byte("residual 44"))
	// Both inputs of the dimension-first join fail: the right input's error
	// comes first, as with a right build.
	f.Add([]byte("c"))
	// A LIMIT over the dimension-first join stops before a failing left row
	// at batch size 1 but not at 1 024: both builds must do the same in each.
	f.Add([]byte("\xd2\"\xbe\xef"))
	// Shapes 8 and 9, the discard rules' inputs. Every seed generates both;
	// these pin the branches below.
	for _, seed := range discardSeeds {
		f.Add([]byte(seed))
	}
	// Shape 10, the join key classes. Every seed generates it; these pin the
	// classes below.
	for _, seed := range keySeeds {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		rng := newDiffRNG(data)
		docs := genDiffDocs(rng)
		queries := genDiffQueries(rng)
		// Shape 10 draws after the dimension join, so the seeds above keep
		// the dimension joins they were added for.
		dims, dimFirst := genDimensionJoin(rng, len(docs))
		queries = append(queries, genKeyJoin(rng))

		// The oracle: one worker, no budget, no typed shredding — the pure
		// variant path — every aggregate on the hash table, so the
		// re-aggregate shape compares the streaming aggregate of every other
		// cell against it, the discard rules off, so the bound and top-1
		// shapes compare them, and every join keyed by bytes and gathering
		// its probe, so the join shapes compare the numeric table and the
		// streaming probe. Its rendering is ground truth.
		oracle := diffCell{name: "oracle", batch: 1024, par: 1, typedOff: true, hashAgg: true, noDiscard: true, byteJoin: true}
		cells := []diffCell{
			{name: "bs1-seq-64k", batch: 1, par: 1, limit: 64 * 1024},
			{name: "bs1024-par4-64k", batch: 1024, par: 4, limit: 64 * 1024},
			{name: "bs64-par4-4k", batch: 64, par: 4, limit: 4 * 1024},
			{name: "bs1024-par4-unlimited", batch: 1024, par: 4},
			// Storage dimension: typed kernels sequential, and typed partitions
			// persisted to disk and reloaded into a fresh engine before querying.
			{name: "bs1024-seq-typed", batch: 1024, par: 1},
			{name: "bs1024-par4-persist-reload", batch: 1024, par: 4, persist: true},
			// Ingestion dimension: warm caches over a prefix, append the rest
			// mid-run, and require the post-append (and re-cached) results to
			// match the oracle's full-dataset recompute.
			{name: "bs1-seq-ingest", batch: 1, par: 1, ingest: true},
			{name: "bs1024-par4-ingest", batch: 1024, par: 4, ingest: true},
			// Exchange dimension: one partition cut into many small morsels,
			// so every FLATTEN/re-aggregate segment fans out and renumbers.
			{name: "bs7-par4-one-partition-morsels", batch: 7, par: 4, morselRows: 16},
		}

		want := runDiffCell(t, oracle, docs, queries)
		// Recycled storage is poisoned for every cell under test: a consumer
		// reading a streamed batch past its producer's next NextBatch diverges.
		vector.SetPoison(true)
		defer vector.SetPoison(false)
		for _, c := range cells {
			got := runDiffCell(t, c, docs, queries)
			for qi, q := range queries {
				if got[qi] != want[qi] {
					t.Errorf("[%s] diverges from oracle on %s\noracle:\n%s\ngot:\n%s",
						c.name, q, clipDiff(want[qi]), clipDiff(got[qi]))
				}
			}
		}
		checkBuildSides(t, docs, dims, []string{queries[3], queries[6], queries[9], dimFirst})
	})
}

// checkBuildSides runs the join queries over t and the dimension table d at
// batch sizes 1/7/1024 and parallelism 1/2/4, and in two cells whose
// exchanges cut 16-row morsels (batch size 4, parallelism 2 and 4) so that a
// probe's and a left build's match pass fan out within a fuzz-sized
// partition, each with every join that may build left forced right, forced
// left, and left to the row-bound rule. In
// each cell the three runs must render the same, error included; and a
// cell's rows must equal the first cell's when neither failed — which batch
// a failing row sits in decides whether a LIMIT stops before it, so errors
// are compared within a cell only. One cell, batch size 1024 at parallelism
// 2, runs under a 2 KiB memory limit so both builds spill; a spilled join
// reads each candidate back from disk, so spilling every cell would
// dominate the fuzzer's time, and the spill grids cover the rest. The last
// query is the dimension-first join, which the rule must build left. Every
// cell runs with recycled storage poisoned, so a consumer that keeps a
// streaming join's batch past its next call diverges.
func checkBuildSides(t *testing.T, docs, dims, queries []string) {
	t.Helper()
	if !vector.Poisoned() {
		vector.SetPoison(true)
		defer vector.SetPoison(false)
	}
	type cell struct {
		bs, par, morsel int
		limit           int64
	}
	var cells []cell
	for _, bs := range []int{1024, 1, 7} {
		for _, par := range []int{1, 2, 4} {
			c := cell{bs: bs, par: par}
			if bs == 1024 && par == 2 {
				c.limit = 2 << 10
			}
			cells = append(cells, c)
		}
	}
	cells = append(cells, cell{bs: 4, par: 2, morsel: 16}, cell{bs: 4, par: 4, morsel: 16})
	var first []string
	for _, c := range cells {
		bs, par, limit := c.bs, c.par, c.limit
		var right []string
		for _, side := range []buildSide{buildRight, buildLeft, buildAuto} {
			e := New(WithBatchSize(bs), WithParallelism(par), WithMemLimit(limit))
			e.forceBuild, e.planCheck, e.morselRows = side, true, c.morsel
			for _, tab := range []struct {
				name string
				cols []string
				docs []string
			}{
				{"t", []string{"grp", "id", "val", "s", "items", "x"}, docs},
				{"d", []string{"dk", "dm", "dn", "dv"}, dims},
			} {
				tb, err := e.Catalog().CreateTable(tab.name, tab.cols)
				if err != nil {
					t.Fatal(err)
				}
				tb.SetTargetPartitionBytes(2048)
				appendDocs(t, diffCell{name: "build-side"}, tb, tab.docs)
			}
			if first == nil {
				plan, err := e.Explain(queries[len(queries)-1])
				if err != nil || !strings.Contains(plan, " build=left ") {
					t.Fatalf("the dimension-first join does not build left (%v):\n%s", err, plan)
				}
			}
			for qi, q := range queries {
				got := "rows:\n"
				res, err := e.Query(q)
				if err != nil {
					got = "error: " + err.Error()
				} else {
					got += renderRows(res)
				}
				switch {
				case len(first) == qi:
					first = append(first, got)
				case len(right) == qi:
					if err == nil && !strings.HasPrefix(first[qi], "error: ") && got != first[qi] {
						t.Errorf("[bs=%d par=%d morsel=%d limit=%d] rows diverge from bs=1024 par=1 on %s\nthere:\n%s\nhere:\n%s",
							bs, par, c.morsel, limit, q, clipDiff(first[qi]), clipDiff(got))
					}
				case got != right[qi]:
					t.Errorf("[bs=%d par=%d morsel=%d limit=%d side=%d] diverges from the right build on %s\nright:\n%s\ngot:\n%s",
						bs, par, c.morsel, limit, side, q, clipDiff(right[qi]), clipDiff(got))
				}
				if side == buildRight {
					right = append(right, got)
				}
			}
		}
	}
}

// genDimensionJoin builds the dimension table d — at most a quarter of t's
// n rows, so the row-bound rule builds it — and a join of d to t with
// duplicate and NULL keys, sometimes a second key, a projection that fails
// on either side, a filter on d, and a LIMIT. It has no ORDER BY: the join's
// own output order is what the build sides must agree on.
func genDimensionJoin(r *diffRNG, n int) ([]string, string) {
	dims := make([]string, r.n(n/4+1))
	for i := range dims {
		dk := fmt.Sprint(r.n(15)) // t's groups are below 13: some keys miss
		if r.n(6) == 0 {
			dk = "null"
		}
		dv := fmt.Sprint(r.n(9))
		if r.n(40) == 0 {
			dv = `"v"` // arithmetic on it fails
		}
		dims[i] = fmt.Sprintf(`{"dk": %s, "dm": %d, "dn": "d%d", "dv": %s}`, dk, r.n(3), i, dv)
	}
	left, right := "", ""
	switch r.n(6) {
	case 0:
		left = `, "dv" + 1 AS "dv1"`
	case 1:
		right = `, "x" * 2 AS "x2"`
	case 2:
		left, right = `, "dv" + 1 AS "dv1"`, `, "x" * 2 AS "x2"`
	}
	where := ""
	if r.n(3) == 0 {
		where = fmt.Sprintf(` WHERE "dk" <> %d`, r.n(13))
	}
	on := `"dk" = "grp"`
	if r.n(2) == 0 {
		on = `"dm" = "m" AND "dk" = "grp"`
	}
	limit := ""
	if r.n(3) == 0 {
		limit = fmt.Sprintf(` LIMIT %d`, 1+r.n(60))
	}
	return dims, fmt.Sprintf(
		`SELECT * FROM (SELECT "dk", "dm", "dn"%s FROM "d"%s) INNER JOIN `+
			`(SELECT "grp", "id" %% 3 AS "m", "id", "val", "x"%s FROM "t") ON %s%s`,
		left, where, right, on, limit)
}

type diffCell struct {
	name       string
	batch, par int
	limit      int64
	// typedOff keeps every column in the variant encoding (the v1 layout);
	// persist writes partitions under a temp data dir and re-opens a fresh
	// engine over it, so queries exercise header pruning + cold loads;
	// ingest splits the load around a warm-up pass with the result cache on
	// (mutually exclusive with persist).
	typedOff bool
	persist  bool
	ingest   bool
	// hashAgg forces the hash aggregate where the plan would stream
	// (Engine.forceHashAgg); noDiscard turns the discard rules off
	// (Engine.noDiscardRules); byteJoin keys every join by bytes and gathers
	// every probe (Engine.byteKeyedJoin).
	hashAgg, noDiscard, byteJoin bool
	// morselRows > 0 loads the dataset as one partition and shrinks the
	// exchange's morsels to that many rows (Engine.morselRows).
	morselRows int
}

// runDiffCell loads the dataset into a fresh engine configured for the
// cell and renders every query's rows.
func runDiffCell(t *testing.T, c diffCell, docs []string, queries []string) []string {
	t.Helper()
	opts := []Option{WithBatchSize(c.batch), WithParallelism(c.par)}
	if c.limit > 0 {
		opts = append(opts, WithMemLimit(c.limit))
	}
	if c.typedOff {
		opts = append(opts, WithTypedColumns(false))
	}
	if c.persist {
		opts = append(opts, WithDataDir(t.TempDir()))
	}
	split := len(docs)
	if c.ingest {
		split = len(docs) * 3 / 5
		opts = append(opts, WithResultCacheBytes(64<<20))
	}
	// Every cell but the oracle runs under planck, which certifies each
	// generated plan's stream marks and every batch's contract.
	hooks := func(e *Engine) {
		e.forceHashAgg, e.morselRows, e.planCheck = c.hashAgg, c.morselRows, !c.hashAgg
		e.noDiscardRules, e.byteKeyedJoin = c.noDiscard, c.byteJoin
	}
	e := New(opts...)
	hooks(e)
	load := func(docs []string) *storage.Table {
		tab, err := e.Catalog().CreateTable("t", []string{"grp", "id", "val", "s", "items", "x"})
		if err != nil {
			t.Fatal(err)
		}
		tab.SetTargetPartitionBytes(2048)
		if c.morselRows > 0 {
			tab.SetTargetPartitionBytes(1 << 40)
		}
		appendDocs(t, c, tab, docs)
		return tab
	}
	tab := load(docs[:split])
	if c.persist {
		// Seal everything to disk, then restart: a fresh engine over the same
		// directory must reconstruct the table bit-exactly from headers + data.
		if err := e.Catalog().Flush(); err != nil {
			t.Fatal(err)
		}
		e = New(opts...)
		hooks(e)
	}
	viewable := false
	if c.ingest {
		// Warm the result cache over the prefix, register a view on the group
		// query when its aggregate list is mergeable (the pool includes
		// SUM/AVG, which are rightly rejected), then stream in the rest.
		for _, q := range queries {
			if _, err := e.Query(q); err != nil {
				t.Fatalf("[%s] warm %s: %v", c.name, q, err)
			}
		}
		viewable = e.CreateView("mv", queries[1]) == nil
		appendDocs(t, c, tab, docs[split:])
	}
	out := make([]string, len(queries))
	for qi, q := range queries {
		out[qi] = diffQuery(t, c, e, q)
	}
	if !c.ingest {
		return out
	}
	// Every reread and view refresh must equal the executed run. Round 0
	// rereads from the re-populated result cache; round 1 runs after the table
	// is dropped and recreated with the full data, so no plan, result or view
	// state of the dropped table may serve; round 2 rereads again.
	for round := 0; round < 3; round++ {
		if round == 1 {
			e.Catalog().DropTable("t")
			load(docs)
		}
		for qi, q := range queries {
			if got := diffQuery(t, c, e, q); got != out[qi] {
				t.Fatalf("[%s] round %d: cached reread diverges on %s:\n got %s\nwant %s",
					c.name, round, q, clipDiff(got), clipDiff(out[qi]))
			}
		}
		if viewable {
			res, err := e.QueryView(context.Background(), "mv")
			if err != nil {
				t.Fatalf("[%s] round %d: view refresh: %v", c.name, round, err)
			}
			if got := renderRows(res); got != out[1] {
				t.Fatalf("[%s] round %d: incremental view diverges from %s:\n got %s\nwant %s",
					c.name, round, queries[1], clipDiff(got), clipDiff(out[1]))
			}
		}
	}
	return out
}

// appendDocs appends generated documents to the cell's table.
func appendDocs(t *testing.T, c diffCell, tab *storage.Table, docs []string) {
	t.Helper()
	for _, doc := range docs {
		if err := tab.AppendObject(variant.MustParseJSON(doc)); err != nil {
			t.Fatalf("[%s] bad generated doc %s: %v", c.name, doc, err)
		}
	}
}

// diffQuery runs one generated query and renders its rows.
func diffQuery(t *testing.T, c diffCell, e *Engine, q string) string {
	t.Helper()
	res, err := e.Query(q)
	if err != nil {
		// The generator emits only valid SQL; an error here is an engine bug
		// (or a generator regression), never fuzz noise.
		t.Fatalf("[%s] %s: %v", c.name, q, err)
	}
	return renderRows(res)
}

// genDiffDocs builds a deterministic nested dataset: a handful of group
// keys, unique ids, exact-ratio floats, variable-length pad strings, arrays
// sized 0..3 for FLATTEN, and a field "x" of mixed kinds — an int, a double,
// NULL, missing, a string, -0.0 or an int near ±2^63 — so that some
// partitions and batches hold it typed and others fall back to variants.
func genDiffDocs(r *diffRNG) []string {
	n := 1 + r.n(250)
	groups := 1 + r.n(13)
	// Most datasets keep "x" to a few kinds, so whole partitions shred typed.
	kinds := 1 + r.n(7)
	docs := make([]string, n)
	for i := 0; i < n; i++ {
		items := make([]string, r.n(4))
		for j := range items {
			items[j] = fmt.Sprint(r.n(50))
		}
		var x string
		switch r.n(kinds) {
		case 0:
			x = fmt.Sprintf(`, "x": %d`, r.n(2001)-1000)
		case 1:
			x = fmt.Sprintf(`, "x": %g`, float64(r.n(4001)-2000)/8.0)
		case 2:
			x = `, "x": null`
		case 3: // missing
		case 4:
			x = fmt.Sprintf(`, "x": "x%d"`, r.n(9))
		case 5:
			x = `, "x": -0.0`
		default:
			x = fmt.Sprintf(`, "x": %d`, int64(math.MaxInt64)-int64(r.n(3)))
			if r.n(2) == 0 {
				x = fmt.Sprintf(`, "x": %d`, int64(math.MinInt64)+int64(r.n(3)))
			}
		}
		docs[i] = fmt.Sprintf(`{"grp": %d, "id": %d, "val": %g, "s": "p%02d%s", "items": [%s]%s}`,
			r.n(groups), i, float64(r.n(997))/16.0, r.n(37),
			strings.Repeat("x", r.n(24)), strings.Join(items, ", "), x)
	}
	return docs
}

// genDiffQueries emits one randomized query per pipeline shape so a single
// fuzz input exercises scan, filter, aggregation, sort, join, and flatten.
// Every query carries an ORDER BY that totally orders its output (unique
// ids or unique group keys break ties), which is what makes byte-for-byte
// comparison across parallelism meaningful.
func genDiffQueries(r *diffRNG) []string {
	where := func() string {
		switch r.n(4) {
		case 0:
			return fmt.Sprintf(` WHERE "val" < %g`, float64(r.n(997))/16.0)
		case 1:
			return fmt.Sprintf(` WHERE "id" >= %d`, r.n(120))
		case 2:
			return fmt.Sprintf(` WHERE "grp" <> %d`, r.n(13))
		default:
			return ""
		}
	}
	limit := func() string {
		if r.n(3) == 0 {
			return fmt.Sprintf(` LIMIT %d`, 1+r.n(40))
		}
		return ""
	}
	dir := func() string {
		if r.n(2) == 0 {
			return " DESC"
		}
		return ""
	}

	// Expressions over the mixed-kind "x": arithmetic, math and rounding, and
	// a condition. Arithmetic on a string fails, so a query computing over
	// "x" keeps the rows whose "x" is no string (xWhere) — and the typed
	// partitions and batches beside the variant ones.
	xItems := `, "x" * 2 + "val" AS "xa", SQRT(ABS("x")) AS "xs", FLOOR("x" / 3) AS "xf", ` +
		`"x" > "val" AND "x" IS NOT NULL AS "xc"`
	xWhere := func(w string) string {
		cond := `TYPEOF("x") <> 'VARCHAR'`
		if r.n(2) == 0 {
			cond += ` AND ("x" > "val" AND "x" IS NOT NULL)`
		}
		if w == "" {
			return " WHERE " + cond
		}
		return w + " AND " + cond
	}

	// Shape 1: scan → filter → project, totally ordered by the unique id.
	scan := fmt.Sprintf(`SELECT "id", "grp", "val", "s"%s FROM "t"%s ORDER BY "id"%s%s`,
		xItems, xWhere(where()), dir(), limit())

	// Shape 2: hash aggregation over a random aggregate list; group keys are
	// unique, so ordering by the key is total.
	aggPool := []string{
		`COUNT(*) AS c`, `MIN("val") AS mn`, `MAX("val") AS mx`,
		`SUM("val") AS sv`, `AVG("val") AS av`, `COUNT(DISTINCT "s") AS ds`,
		`MAX("s") AS ms`, `ARRAY_AGG("id") AS ids`,
	}
	naggs := 1 + r.n(4)
	aggs := make([]string, 0, naggs)
	start := r.n(len(aggPool))
	for i := 0; i < naggs; i++ {
		aggs = append(aggs, aggPool[(start+i*3)%len(aggPool)])
	}
	group := fmt.Sprintf(`SELECT "grp", %s FROM "t"%s GROUP BY "grp" ORDER BY "grp"%s%s`,
		strings.Join(aggs, ", "), where(), dir(), limit())

	// Shape 3: sort with a randomized direction on a non-unique prefix,
	// tie-broken by id.
	sort := fmt.Sprintf(`SELECT "s", "val", "id" FROM "t"%s ORDER BY "s"%s, "val", "id"%s`,
		where(), dir(), limit())

	// Shape 4: subquery join on the group key (the dialect has no qualified
	// column refs, so the build side renames its columns), totally ordered
	// by the probe id plus the build columns. Sometimes the ON condition
	// also holds a residual over both sides, which a LEFT OUTER row can fail
	// for every candidate.
	joinKind := "INNER"
	if r.n(2) == 0 {
		joinKind = "LEFT OUTER"
	}
	residual := ""
	if r.n(2) == 0 {
		residual = fmt.Sprintf(` AND "id" %% %d < "i2" %% %d`, 2+r.n(5), 2+r.n(5))
	}
	join := fmt.Sprintf(
		`SELECT "id", "g2", "s2" FROM (SELECT "id", "grp" FROM "t"%s) %s JOIN `+
			`(SELECT "grp" AS "g2", "s" AS "s2", "id" AS "i2" FROM "t" WHERE "id" < %d) `+
			`ON "grp" = "g2"%s ORDER BY "id", "s2", "g2"%s`,
		where(), joinKind, 1+r.n(150), residual, limit())

	// Shape 5: LATERAL FLATTEN of the nested array, ordered by the unique
	// (id, INDEX) pair.
	flatten := fmt.Sprintf(
		`SELECT "id", "f".INDEX AS "ix", "f".VALUE AS "item"%s, "f".INDEX * "x" AS "xi" FROM `+
			`(SELECT * FROM "t"%s), LATERAL FLATTEN(INPUT => "items") AS "f" `+
			`ORDER BY "id", "ix"%s`,
		xItems, xWhere(where()), limit())

	// Shape 6: the nested-query re-aggregate — row ID, OUTER FLATTEN, GROUP
	// BY the row ID — which the physical pass streams. No ORDER BY: the row
	// ID fixes the output order, and a LIMIT then sits directly on the
	// aggregate.
	reaggPool := []string{
		`COUNT(*) AS c`, `COUNT_IF("f".VALUE > 3) AS ci`, `SUM("f".VALUE) AS sv`,
		`MIN("f".VALUE) AS mn`, `ARRAY_AGG("f".VALUE) AS vs`,
		`ARRAY_AGG(DISTINCT "f".VALUE) AS dv`,
		`ARRAY_AGG("f".INDEX) WITHIN GROUP (ORDER BY "f".VALUE DESC, "f".INDEX) AS ov`,
		`COUNT(DISTINCT "f".VALUE) AS dc`,
	}
	nreagg := 1 + r.n(4)
	reaggs := make([]string, 0, nreagg)
	start = r.n(len(reaggPool))
	for i := 0; i < nreagg; i++ {
		reaggs = append(reaggs, reaggPool[(start+i*3)%len(reaggPool)])
	}
	reagg := fmt.Sprintf(
		`SELECT "rid", ANY_VALUE("id") AS "id", %s FROM `+
			`(SELECT * FROM (SELECT *, SEQ8() AS "rid" FROM "t"%s), `+
			`LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f") GROUP BY "rid"%s`,
		strings.Join(reaggs, ", "), where(), limit())

	// Shape 7: the row-ID self-join — the JOIN strategy's nested query
	// (§IV-C2), generated ADL q6's shape. The SEQ8() projection is LEFT OUTER
	// joined on its row ID to a re-aggregate of its own OUTER FLATTEN, whose
	// filter drops some row IDs altogether. No ORDER BY: the probe order is
	// the row-ID order.
	base := fmt.Sprintf(`SELECT *, SEQ8() AS "rid" FROM "t"%s`, where())
	selfJoin := fmt.Sprintf(
		`SELECT "id", "rid", "r2", %s FROM (%s) LEFT OUTER JOIN `+
			`(SELECT "rid" AS "r2", %s FROM (SELECT * FROM (%s), LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f") `+
			`WHERE "f".VALUE > %d OR "id" %% 3 = 0 GROUP BY "rid") ON "rid" = "r2"%s`,
		strings.Join(aliases(reaggs), ", "), base, strings.Join(reaggs, ", "), base, r.n(50), limit())

	return []string{scan, group, sort, join, flatten, reagg, selfJoin, genBoundQuery(r), genTop1Query(r, where())}
}

// joinKeys are shape 10's key expressions, one drawn per side: ints
// (duplicated, or unique), floats some of which equal ints (1 vs 1.0), NaN
// beside numbers, -0 beside +0, ints beyond 2^53 that collapse onto one
// float, and "x" — ints, floats, -0.0, ints near ±2^63, strings, NULL and
// missing.
var joinKeys = []string{
	`"grp"`,
	`"grp" / 2`,
	`"id"`,
	`"id" / 1`,
	`IFF("id" % 5 = 0, SQRT(0 - 1 - "grp"), "grp")`,
	`IFF("id" % 3 = 0, -0.0, "grp" % 3)`,
	`"grp" + 9007199254740992`,
	`"x"`,
}

// genKeyJoin is shape 10: an equi-join on a computed key of one of the
// joinKeys per side, INNER or LEFT OUTER, sometimes with a residual and a
// LIMIT. The oracle keys it by bytes and gathers every probe
// (Engine.byteKeyedJoin); every other cell keys a numeric build by the number
// and streams a unique one. No ORDER BY: the probe order is the output order.
func genKeyJoin(r *diffRNG) string {
	where := ""
	if r.n(3) == 0 {
		where = fmt.Sprintf(` WHERE "grp" <> %d`, r.n(13))
	}
	kind := "INNER"
	if r.n(2) == 0 {
		kind = "LEFT OUTER"
	}
	left, right := joinKeys[r.n(len(joinKeys))], joinKeys[r.n(len(joinKeys))]
	residual := ""
	if r.n(3) == 0 {
		residual = fmt.Sprintf(` AND "id" %% %d <> "i2" %% %d`, 2+r.n(3), 2+r.n(3))
	}
	limit := ""
	if r.n(4) == 0 {
		limit = fmt.Sprintf(` LIMIT %d`, 1+r.n(60))
	}
	return fmt.Sprintf(
		`SELECT "id", "k", "i2", "k2" FROM (SELECT "id", %s AS "k" FROM "t"%s) %s JOIN `+
			`(SELECT "id" AS "i2", %s AS "k2" FROM "t" WHERE "id" < %d) ON "k" = "k2"%s%s`,
		left, where, kind, right, 1+r.n(200), residual, limit)
}

// genBoundQuery is shape 8: FLATTEN × FLATTEN under a comparison the
// flatten-bound rule reads as a lower bound on the inner FLATTEN's INDEX or
// ARRAY_RANGE VALUE — every operator, both operand orders, OUTER flattens,
// empty and one-element arrays, and left sides that are NULL, float, an int
// near ±2^63 or a string ("x"), or an expression the rule leaves alone.
func genBoundQuery(r *diffRNG) string {
	outer := func() string {
		if r.n(2) == 0 {
			return ", OUTER => TRUE"
		}
		return ""
	}
	inner, cols := `"items"`, []string{`"g".INDEX`}
	if r.n(2) == 0 {
		inner = fmt.Sprintf(`ARRAY_RANGE(%d, ARRAY_SIZE("items") + %d)`, r.n(5)-2, r.n(3))
		cols = append(cols, `"g".VALUE`)
	}
	lhs := []string{`"f".INDEX`, `"f".VALUE`, `"x"`, `NULL`, `1.5`, fmt.Sprint(r.n(4) - 1), `"f".INDEX + 1`}
	a, b := lhs[r.n(len(lhs))], cols[r.n(len(cols))]
	op := []string{"<", "<=", ">", ">="}[r.n(4)]
	cond := a + " " + op + " " + b
	if r.n(2) == 0 {
		flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
		cond = b + " " + flip[op] + " " + a
	}
	if r.n(3) == 0 {
		cond += ` AND "g".INDEX <> 1`
	}
	return fmt.Sprintf(
		`SELECT "id", "f".INDEX AS "fi", "g".INDEX AS "gi", "g".VALUE AS "gv" FROM (SELECT * FROM "t"), `+
			`LATERAL FLATTEN(INPUT => "items"%s) AS "f", LATERAL FLATTEN(INPUT => %s%s) AS "g" `+
			`WHERE %s ORDER BY "id", "fi", "gi"`,
		outer(), inner, outer(), cond)
}

// genTop1Query is shape 9: GET(ARRAY_AGG(v) WITHIN GROUP (ORDER BY k...), 0),
// the top-1 rule's input, hashed by group or streamed by row ID over an
// OUTER FLATTEN — with tied keys, NULL keys and values, mixed-kind keys
// ("x"), DESC keys, and an OBJECT_CONSTRUCT value read by field (the rule
// then carries only the fields read) or whole.
func genTop1Query(r *diffRNG, where string) string {
	dir := func() string {
		if r.n(2) == 0 {
			return " DESC"
		}
		return ""
	}
	stream := r.n(2) == 0
	vals := []string{`"id"`, `IFF("id" % 4 = 0, NULL, "id")`, `"x"`, `OBJECT_CONSTRUCT('a', "id", 'b', "s", 'c', "x")`}
	keys := []string{`"x"`, `"grp" % 3`, `"val"`, `IFF("id" % 5 = 0, NULL, "id" % 4)`}
	if stream {
		vals = append(vals, `"f".VALUE`, `OBJECT_CONSTRUCT('a', "f".INDEX, 'b', "s", 'c', "f".VALUE)`)
		keys = append(keys, `"f".VALUE % 3`, `"f".INDEX`)
	}
	val := vals[r.n(len(vals))]
	order := keys[r.n(len(keys))] + dir()
	if r.n(2) == 0 {
		order += ", " + keys[r.n(len(keys))] + dir()
	}
	reads := `"top"`
	if strings.HasPrefix(val, "OBJECT_CONSTRUCT") && r.n(3) > 0 {
		reads = `GET("top", 'a') AS "ta", GET("top", 'c') AS "tc"`
	}
	agg := fmt.Sprintf(`GET(ARRAY_AGG(%s) WITHIN GROUP (ORDER BY %s), 0) AS "top"`, val, order)
	if !stream {
		return fmt.Sprintf(`SELECT "grp", %s FROM (SELECT "grp", %s FROM "t"%s GROUP BY "grp") ORDER BY "grp"`,
			reads, agg, where)
	}
	return fmt.Sprintf(
		`SELECT "rid", %s FROM (SELECT "rid", %s FROM (SELECT * FROM (SELECT *, SEQ8() AS "rid" FROM "t"%s), `+
			`LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f") GROUP BY "rid")`,
		reads, agg, where)
}

// aliases returns the output names of "<expr> AS <name>" select items.
func aliases(items []string) []string {
	out := make([]string, len(items))
	for i, it := range items {
		out[i] = `"` + it[strings.LastIndex(it, " AS ")+4:] + `"`
	}
	return out
}

// clipDiff bounds failure output so a divergence on a large dataset stays
// readable.
func clipDiff(s string) string {
	const max = 2048
	if len(s) <= max {
		return s
	}
	return s[:max] + fmt.Sprintf("... (%d bytes total)", len(s))
}

// diffRNG is a self-contained xorshift64* PRNG so fuzz inputs map to
// plans deterministically without math/rand's version-dependent streams.
type diffRNG struct{ s uint64 }

func newDiffRNG(data []byte) *diffRNG {
	s := uint64(0x9e3779b97f4a7c15)
	for _, b := range data {
		s ^= uint64(b)
		s *= 0xbf58476d1ce4e5b9
		s ^= s >> 27
	}
	if s == 0 {
		s = 1
	}
	return &diffRNG{s: s}
}

func (r *diffRNG) next() uint64 {
	x := r.s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

// n returns a deterministic value in [0, m).
func (r *diffRNG) n(m int) int {
	if m <= 0 {
		return 0
	}
	return int(r.next() % uint64(m))
}

// discardSeeds are FuzzPlanDiff inputs whose shapes 8 and 9 between them
// cover every operator and operand order, an OUTER inner FLATTEN, INDEX and
// VALUE bounds from a column, an int, a float, NULL and "x"; and top-1 over
// hashed and streamed groups, NULL and mixed-kind keys, DESC, two keys, NULL
// values, and an OBJECT_CONSTRUCT read by field.
var discardSeeds = []string{"d37", "d57", "d0", "d2", "d3", "d6"}

// keySeeds are FuzzPlanDiff inputs whose shape-10 joins between them cover 1
// against 1.0 (unique float build; int probe of a float build), NaN on both
// sides, -0 against +0 and against "x", ints past 2^53 on both sides, "x"'s
// strings and NULLs against numbers, and duplicate build keys — INNER and
// LEFT OUTER, with and without a residual and a LIMIT; checkBuildSides runs
// each on both build sides.
var keySeeds = []string{"k12", "k19", "k15", "k0", "k2", "k161", "k58", "k18", "k16", "k3"}
