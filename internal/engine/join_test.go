package engine

import (
	"fmt"
	"strings"
	"testing"

	"jsonpark/internal/variant"
)

// joinGrid runs sql over multiPartEngine at parallelism {1, 4} × batch size
// {1, 7, 1024} × memory limit {none, 2 KiB}, with recycled storage poisoned
// and planck on, and requires every cell byte-identical to the unpoisoned
// parallelism-1 run. The limited cells must spill the build side, so the
// probe pairs with decoded candidates as well as retained ones.
func joinGrid(t *testing.T, sql, want string) {
	t.Helper()
	if got := renderRows(mustQuery(t, multiPartEngine(t, WithParallelism(1)), sql)); got != want {
		t.Fatalf("%s at parallelism 1:\ngot:\n%s\nwant:\n%s", sql, got, want)
	}
	poisonRecycling(t)
	spilled := false
	for _, par := range []int{1, 4} {
		for _, bs := range []int{1, 7, 1024} {
			for _, limit := range []int64{0, 2 << 10} {
				e := multiPartEngine(t, WithParallelism(par), WithBatchSize(bs), WithMemLimit(limit), planChecked())
				res, err := e.Query(sql)
				if err != nil {
					t.Fatalf("par=%d bs=%d limit=%d: %v", par, bs, limit, err)
				}
				spilled = spilled || res.Metrics.Spills > 0
				if got := renderRows(res); got != want {
					t.Errorf("par=%d bs=%d limit=%d diverges from parallelism 1", par, bs, limit)
				}
			}
		}
	}
	if !spilled {
		t.Errorf("%s: no cell spilled the build side", sql)
	}
}

// eventVal is multiPartEngine's "val" of row i.
func eventVal(i int) float64 { return float64(i%50) / 3.0 }

// TestJoinStatefulBuildKeyParity: a build key holding SEQ8() numbers the
// build rows in input order. The keys evaluate on the driver as the build
// side drains, so the join fans out at any parallelism and every candidate
// list still reads exactly as the key's row numbers say.
func TestJoinStatefulBuildKeyParity(t *testing.T) {
	sql := `SELECT "id", "oid" FROM (SELECT "id", "grp" AS "g" FROM "events" WHERE "id" < 60) INNER JOIN (SELECT "id" AS "oid", "grp" FROM "events") ON "g" = ("grp" + SEQ8()) % 7`
	var want strings.Builder
	for id := 0; id < 60; id++ {
		for k := 0; k < 500; k++ { // build row k: grp k%7, SEQ8() k
			if (k%7+k)%7 == id%7 {
				fmt.Fprintf(&want, "%d\t%d\t\n", id, k)
			}
		}
	}
	plan, err := multiPartEngine(t).Explain(sql)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "INNER Join keys=1") {
		t.Fatalf("the stateful equality is not a join key:\n%s", plan)
	}
	joinGrid(t, sql, want.String())
}

// TestJoinLeftOuterResidualPadsInPlace: a LEFT OUTER row whose candidates
// all fail a residual over both sides comes out once, NULL on the right, in
// its place among the left rows — not dropped, not moved.
func TestJoinLeftOuterResidualPadsInPlace(t *testing.T) {
	sql := `SELECT "id", "oid" FROM (SELECT "id", "grp", "val" FROM "events" WHERE "id" < 40) LEFT OUTER JOIN (SELECT "id" AS "oid", "grp" AS "og", "val" AS "ov" FROM "events" WHERE "id" < 100) ON "grp" = "og" AND "ov" > "val" + 10`
	var want strings.Builder
	padded := 0
	for id := 0; id < 40; id++ {
		matched := false
		for k := id % 7; k < 100; k += 7 { // every left row has candidates
			if eventVal(k) > eventVal(id)+10 {
				fmt.Fprintf(&want, "%d\t%d\t\n", id, k)
				matched = true
			}
		}
		if !matched {
			fmt.Fprintf(&want, "%d\tnull\t\n", id)
			padded++
		}
	}
	if padded == 0 || padded == 40 {
		t.Fatalf("%d of 40 left rows padded: the data does not pin the residual", padded)
	}
	joinGrid(t, sql, want.String())
}

// typedPairsEngine loads "t" — n rows whose key k repeats every 13, with a
// number, a string and some rows without a key — and "d", whose keys 0..12
// hold one to three rows each (11 and 12 none), with a string, a float and
// a boolean, some of them missing. Every column seals typed, so a join's
// pairs gather typed registers, strings included.
func typedPairsEngine(t *testing.T, n int, opts ...Option) *Engine {
	t.Helper()
	e := New(opts...)
	e.morselRows = 64
	load := func(name string, cols, docs []string) {
		tab, err := e.Catalog().CreateTable(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		tab.SetTargetPartitionBytes(4 << 10)
		for _, d := range docs {
			if err := tab.AppendObject(variant.MustParseJSON(d)); err != nil {
				t.Fatal(err)
			}
		}
	}
	docs := make([]string, n)
	for i := range docs {
		k := fmt.Sprintf(`"k": %d, `, i%13)
		if i%17 == 5 {
			k = ""
		}
		docs[i] = fmt.Sprintf(`{"id": %d, %s"v": %d, "s": "s%d"}`, i, k, i*3%101, i%7)
	}
	load("t", []string{"id", "k", "v", "s"}, docs)
	var dims []string
	for dk := 0; dk < 11; dk++ {
		for r := 0; r <= dk%3; r++ {
			name := fmt.Sprintf(`"name": "s%d", `, (dk+r)%7)
			if dk == 4 && r == 1 {
				name = ""
			}
			dims = append(dims, fmt.Sprintf(`{"dk": %d, %s"w": %g, "flag": %t}`, dk, name, float64(dk*10+r)/4, r%2 == 0))
		}
	}
	load("d", []string{"dk", "name", "w", "flag"}, dims)
	return e
}

// TestTypedPairsParity: joins that gather pairs — duplicate build keys,
// INNER and LEFT OUTER, with and without a residual, and a left build —
// emit typed registers, strings included, and their rows and order are the
// variant path's (Engine.byteKeyedJoin gathers every column as variants) at
// every batch size × parallelism × build side, with recycled storage,
// string registers included, poisoned.
func TestTypedPairsParity(t *testing.T) {
	queries := []string{
		`SELECT id, s, name, w, flag FROM t INNER JOIN d ON k = dk`,
		`SELECT id, s, name, w, flag FROM t LEFT OUTER JOIN d ON k = dk`,
		`SELECT id, s, name, w FROM t INNER JOIN d ON k = dk AND w > v % 9`,
		`SELECT id, s, name, w, flag FROM t LEFT OUTER JOIN d ON k = dk AND name <> s`,
		`SELECT dk, name, flag, id, s, v FROM d INNER JOIN t ON dk = k`,
	}
	const n = 600
	variantPath := typedPairsEngine(t, n, WithParallelism(1))
	variantPath.byteKeyedJoin = true
	want := make([]string, len(queries))
	for i, sql := range queries {
		if want[i] = renderRows(mustQuery(t, variantPath, sql)); strings.Count(want[i], "\n") < n/2 {
			t.Fatalf("%s returns %d rows; the data pins too little", sql, strings.Count(want[i], "\n"))
		}
	}
	if !strings.Contains(want[1], "null") || strings.Contains(want[1], "poisoned") {
		t.Fatalf("LEFT OUTER pads no row:\n%s", want[1])
	}
	poisonRecycling(t)
	for _, bs := range []int{1, 7, 1024} {
		for _, par := range []int{1, 2, 4} {
			for _, side := range []buildSide{buildAuto, buildRight, buildLeft} {
				e := typedPairsEngine(t, n, WithBatchSize(bs), WithParallelism(par), planChecked())
				e.forceBuild = side
				for i, sql := range queries {
					res, ps, err := e.QueryAnalyze(sql)
					if err != nil {
						t.Fatalf("bs=%d par=%d side=%d %s: %v", bs, par, side, sql, err)
					}
					if got := renderRows(res); got != want[i] {
						t.Errorf("bs=%d par=%d side=%d %s: rows diverge from the variant path", bs, par, side, sql)
					}
					ps.Walk(func(_ int, n *PlanStats) {
						if strings.HasSuffix(n.Op, "Join") && strings.Contains(n.Detail, "unique") {
							t.Errorf("%s: the join streams; it gathers no pair", sql)
						}
					})
				}
			}
		}
	}
}
