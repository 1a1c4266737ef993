package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"jsonpark/internal/obsv"
	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
)

func TestFlattenStart(t *testing.T) {
	maxInt := int(^uint(0) >> 1)
	for _, c := range []struct {
		a      variant.Value
		strict bool
		base   int64
		want   int
	}{
		{variant.Null, true, 0, 0},
		{variant.Float(2), true, 0, 0},
		{variant.String("2"), false, 0, 0},
		{variant.Int(2), true, 0, 3},
		{variant.Int(2), false, 0, 2},
		{variant.Int(-5), true, 0, 0},
		{variant.Int(2), true, 1, 2}, // VALUE over ARRAY_RANGE(1, ...): "i" < VALUE starts at VALUE 3
		{variant.Int(0), false, 1, 0},
		{variant.Int(math.MaxInt64), true, 0, maxInt},
		{variant.Int(math.MaxInt64), false, math.MinInt64, maxInt},
		{variant.Int(math.MinInt64), true, math.MaxInt64, 0},
	} {
		if got := flattenStart(c.a, c.strict, c.base); got != c.want {
			t.Errorf("flattenStart(%v, strict=%v, base=%d) = %d, want %d", c.a, c.strict, c.base, got, c.want)
		}
	}
}

// TestTop1AccMatchesArrayAggSort pins the accumulator against its
// definition: element 0 of arrayAggAcc's stable sort, over sequences with
// ties, NULL values, NULL and mixed-kind keys and DESC keys — folded in one
// pass, and split into partials that are merged in input order, one of them
// through the spill codec.
func TestTop1AccMatchesArrayAggSort(t *testing.T) {
	r := newDiffRNG([]byte("top1"))
	keyPool := []variant.Value{
		variant.Null, variant.Int(1), variant.Int(2), variant.Float(1), variant.Float(1.5),
		variant.Int(-3), variant.String("a"), variant.String("b"), variant.Bool(true), variant.Float(math.Copysign(0, -1)),
	}
	for trial := 0; trial < 2000; trial++ {
		nkeys := 1 + r.n(2)
		order := make([]sqlast.OrderItem, nkeys)
		descs := make([]bool, nkeys)
		for k := range order {
			descs[k] = r.n(2) == 0
			order[k].Desc = descs[k]
		}
		rows := r.n(9)
		vals := make([]variant.Value, rows)
		keys := make([][]variant.Value, rows)
		for i := range vals {
			vals[i] = variant.Int(int64(i))
			if r.n(5) == 0 {
				vals[i] = variant.Null
			}
			keys[i] = make([]variant.Value, nkeys)
			for k := range keys[i] {
				keys[i][k] = keyPool[r.n(len(keyPool))]
			}
		}
		spec := AggSpec{Name: "ARRAY_AGG", OrderBy: order}
		sorted := newAccumulator(spec)
		spec.Top1 = true
		whole := newAccumulator(spec)
		parts := []accumulator{newAccumulator(spec), newAccumulator(spec), newAccumulator(spec)}
		cut1, cut2 := r.n(rows+1), r.n(rows+1)
		cut1, cut2 = min(cut1, cut2), max(cut1, cut2)
		for i := range vals {
			must(t, sorted.add(vals[i], keys[i]))
			must(t, whole.add(vals[i], keys[i]))
			p := 0
			if i >= cut1 {
				p = 1
			}
			if i >= cut2 {
				p = 2
			}
			must(t, parts[p].add(vals[i], keys[i]))
		}
		state, err := encodeAccState(nil, parts[1])
		must(t, err)
		restored, rest, err := decodeAccState(spec, state)
		must(t, err)
		if len(rest) != 0 {
			t.Fatalf("trial %d: %d bytes left after decoding", trial, len(rest))
		}
		must(t, mergeAccumulators(parts[0], restored))
		must(t, mergeAccumulators(parts[0], parts[2]))
		want := sorted.result(descs).Index(0)
		for name, acc := range map[string]accumulator{"one pass": whole, "merged": parts[0]} {
			if got := acc.result(descs); got.Kind() != want.Kind() || got.JSON() != want.JSON() {
				t.Fatalf("trial %d %s: top-1 = %v, sort's first = %v (keys %v, descs %v, vals %v)", trial, name, got, want, keys, descs, vals)
			}
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// discardDocs is a table for the discard rules' grids: arrays of 0 to 4
// integers, a mixed-kind "x" (int, float, NULL, missing, string, near
// 2^63), and keys "k" with many ties and some NULLs.
func discardDocs(t *testing.T, e *Engine) {
	t.Helper()
	tab, err := e.Catalog().CreateTable("t", []string{"id", "grp", "k", "items", "x", "s"})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetTargetPartitionBytes(512)
	xs := []string{`1`, `2.5`, `null`, ``, `"str"`, `9223372036854775807`, `-1`, `0`}
	for i := 0; i < 60; i++ {
		items := make([]string, i%5)
		for j := range items {
			items[j] = fmt.Sprint((i*7 + j*3) % 6)
		}
		x := ""
		if v := xs[i%len(xs)]; v != "" {
			x = `, "x": ` + v
		}
		k := fmt.Sprint(i % 3)
		if i%7 == 0 {
			k = "null"
		}
		doc := fmt.Sprintf(`{"id": %d, "grp": %d, "k": %s, "items": [%s], "s": "s%d"%s}`,
			i, i%4, k, strings.Join(items, ", "), i%5, x)
		if err := tab.AppendObject(variant.MustParseJSON(doc)); err != nil {
			t.Fatal(err)
		}
	}
}

// discardGrid runs each query with the discard rules on and off (the
// oracle) over typed and variant storage, at batch sizes 1 and 1024,
// sequential and parallel, and — for the aggregates — under a memory limit
// that spills; the rows must be identical. It returns how many queries'
// plans carry marker, so a grid can check that the rule fired.
func discardGrid(t *testing.T, queries []string, marker string) int {
	t.Helper()
	fired := 0
	for i, cell := range []struct {
		typed      bool
		batch, par int
		limit      int64
	}{{true, 1024, 1, 0}, {false, 1024, 1, 0}, {true, 1, 4, 0}, {false, 7, 4, 2 << 10}, {true, 64, 4, 2 << 10}} {
		engines := [2]*Engine{}
		for j := range engines {
			engines[j] = New(WithTypedColumns(cell.typed), WithBatchSize(cell.batch), WithParallelism(cell.par),
				WithMemLimit(cell.limit), WithPlanCacheSize(-1))
			engines[j].noDiscardRules, engines[j].planCheck, engines[j].morselRows = j == 1, true, 16
			discardDocs(t, engines[j])
		}
		for _, q := range queries {
			var got [2]string
			for j, e := range engines {
				res, err := e.Query(q)
				if err != nil {
					t.Fatalf("%+v rules off=%v: %s: %v", cell, j == 1, q, err)
				}
				got[j] = renderRows(res)
			}
			if got[0] != got[1] {
				t.Errorf("%+v: rules on and off disagree on %s\n on:\n%s\noff:\n%s", cell, q, clipDiff(got[0]), clipDiff(got[1]))
			}
			if i == 0 {
				if plan, err := engines[0].Explain(q); err == nil && strings.Contains(plan, marker) {
					fired++
				}
			}
		}
	}
	return fired
}

// TestFlattenBoundGrid compares every comparison operator, both operand
// orders, OUTER and inner FLATTENs on either side, INDEX and ARRAY_RANGE
// VALUE bounds, and left sides of every kind (a column, ints, a float,
// NULL, the mixed-kind "x") against the rules-off oracle. The bound fires on
// every lower bound, and on no upper one.
func TestFlattenBoundGrid(t *testing.T) {
	flip := map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}
	var queries []string
	want := 0
	for _, inner := range []string{`"items"`, `ARRAY_RANGE(1, ARRAY_SIZE("items") + 1)`, `ARRAY_RANGE(-2, "grp")`} {
		cols := []string{`"g".INDEX`}
		if strings.HasPrefix(inner, "ARRAY_RANGE") {
			cols = append(cols, `"g".VALUE`)
		}
		for _, outer := range []string{"", ", OUTER => TRUE"} {
			for _, col := range cols {
				for _, a := range []string{`"f".INDEX`, `"f".VALUE`, `"x"`, `NULL`, `1.5`, `-1`, `2`, `9223372036854775807`} {
					for _, op := range []string{"<", "<=", ">", ">="} {
						for _, cond := range []string{a + " " + op + " " + col, col + " " + flip[op] + " " + a} {
							queries = append(queries, fmt.Sprintf(
								`SELECT "id", "f".INDEX, "g".INDEX, "g".VALUE FROM (SELECT * FROM "t"), `+
									`LATERAL FLATTEN(INPUT => "items"%s) AS "f", LATERAL FLATTEN(INPUT => %s%s) AS "g" WHERE %s`,
								outer, inner, outer, cond))
						}
						if op == "<" || op == "<=" { // a lower bound on col, in either order
							want += 2
						}
					}
				}
			}
		}
	}
	if got := discardGrid(t, queries, " from="); got != want {
		t.Errorf("the bound fired on %d of %d queries", got, want)
	}
}

// TestTop1Grid compares GET(ARRAY_AGG(v) WITHIN GROUP (ORDER BY ...), 0)
// over hashed and streamed groups — tied, NULL, mixed-kind and DESC keys,
// NULL values, an OBJECT_CONSTRUCT read by field and whole — against the
// rules-off oracle, and checks where the rule must not fire.
func TestTop1Grid(t *testing.T) {
	var queries []string
	for _, val := range []string{`"id"`, `"x"`, `IFF("id" % 3 = 0, NULL, "id")`, `OBJECT_CONSTRUCT('a', "id", 'b', "s", 'c', "x")`} {
		for _, order := range []string{`"k"`, `"k" DESC, "id" DESC`, `"x"`, `"x" DESC, "k"`, `"grp" % 2`} {
			agg := fmt.Sprintf(`GET(ARRAY_AGG(%s) WITHIN GROUP (ORDER BY %s), 0)`, val, order)
			reads := []string{`"top"`}
			if strings.HasPrefix(val, "OBJECT_CONSTRUCT") {
				reads = append(reads, `GET("top", 'a'), GET("top", 'c')`, `GET("top", 'b')`)
			}
			for _, read := range reads {
				queries = append(queries,
					fmt.Sprintf(`SELECT "grp", %s FROM (SELECT "grp", %s AS "top" FROM "t" GROUP BY "grp") ORDER BY "grp"`, read, agg),
					fmt.Sprintf(`SELECT "rid", %s FROM (SELECT "rid", %s AS "top" FROM (SELECT * FROM (SELECT *, SEQ8() AS "rid" FROM "t"), `+
						`LATERAL FLATTEN(INPUT => "items", OUTER => TRUE) AS "f") GROUP BY "rid")`, read, strings.ReplaceAll(agg, `"id"`, `"f".VALUE`)))
			}
		}
	}
	if got := discardGrid(t, queries, " top1("); got != len(queries) {
		t.Errorf("top-1 fired on %d of %d queries", got, len(queries))
	}
	unfired := []string{
		`SELECT "grp", GET(ARRAY_AGG(DISTINCT "k") WITHIN GROUP (ORDER BY "k"), 0) FROM "t" GROUP BY "grp"`,
		`SELECT "grp", GET(ARRAY_AGG("id"), 0) FROM "t" GROUP BY "grp"`,
		`SELECT "grp", GET(ARRAY_AGG("id") WITHIN GROUP (ORDER BY "k"), 1) FROM "t" GROUP BY "grp"`,
		`SELECT "grp", ARRAY_AGG("id") WITHIN GROUP (ORDER BY "k") FROM "t" GROUP BY "grp"`,
		`SELECT "grp", ARRAY_SIZE("a"), GET("a", 0) FROM (SELECT "grp", ARRAY_AGG("id") WITHIN GROUP (ORDER BY "k") AS "a" FROM "t" GROUP BY "grp")`,
	}
	if got := discardGrid(t, unfired, " top1("); got != 0 {
		t.Errorf("top-1 fired on %d queries that read more than element 0 or are not ordered", got)
	}
}

// TestTop1CarriesOnlyFieldsRead pins the field narrowing: a top-1 whose
// element 0 is only read by field keeps those fields of its
// OBJECT_CONSTRUCT, and projection pruning then drops what only the others
// read.
func TestTop1CarriesOnlyFieldsRead(t *testing.T) {
	e := New()
	discardDocs(t, e)
	plan, err := e.Explain(`SELECT GET("top", 'a') FROM (SELECT "grp", GET(ARRAY_AGG(OBJECT_CONSTRUCT('a', "id", 'b', UPPER("s"))) ` +
		`WITHIN GROUP (ORDER BY "k"), 0) AS "top" FROM "t" GROUP BY "grp")`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, " top1(__a0 carries a)") || !strings.Contains(plan, "cols=[id grp k]") {
		t.Errorf("plan:\n%s", plan)
	}
}

// TestDiscardRuleSpans pins the trace: optimize gives each discard rule a
// span with the number of rewrites, and none when the rules are off.
func TestDiscardRuleSpans(t *testing.T) {
	const sql = `SELECT GET("top", 'a') FROM (SELECT "id", GET(ARRAY_AGG(OBJECT_CONSTRUCT('a', "g".VALUE, 'b', "s")) ` +
		`WITHIN GROUP (ORDER BY "g".INDEX DESC), 0) AS "top" FROM (SELECT * FROM "t"), LATERAL FLATTEN(INPUT => "items") AS "f", ` +
		`LATERAL FLATTEN(INPUT => "items") AS "g" WHERE "f".INDEX < "g".INDEX GROUP BY "id")`
	for _, off := range []bool{false, true} {
		e := New()
		e.noDiscardRules = off
		discardDocs(t, e)
		tr := obsv.NewTracer(1).Start("q")
		if _, err := e.PrepareOpts(sql, PrepareOptions{Span: tr.Root}); err != nil {
			t.Fatal(err)
		}
		spans := map[string]string{}
		tr.Finish().Root.Walk(func(_ int, sd obsv.SpanData) {
			for _, a := range sd.Attrs {
				if a.Key == "fired" {
					spans[sd.Name] = a.Value
				}
			}
		})
		want := map[string]string{"rule.top1": "1", "rule.flatten-bound": "1"}
		if off {
			want = map[string]string{}
		}
		if fmt.Sprint(spans) != fmt.Sprint(want) {
			t.Errorf("rules off=%v: fired spans %v, want %v", off, spans, want)
		}
	}
}
