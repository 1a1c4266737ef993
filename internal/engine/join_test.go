package engine

import (
	"fmt"
	"strings"
	"testing"
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
