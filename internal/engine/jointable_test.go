package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// keyClassEngine loads the probe side "p" and three build sides, whose keys
// "pk" and "bk" hold the values the join's key classes hinge on: an int and
// the float equal to it, NaN, +0 and -0, and integers past 2^53 that a float
// rounds onto. "bu" holds one value of each class, so its keys are unique;
// "bd" holds every value three times, and "bs" once plus a string and NULL.
func keyClassEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	nums := []variant.Value{
		variant.Int(1), variant.Float(1), variant.Int(2), variant.Float(2.5),
		variant.Float(math.NaN()), variant.Float(math.Copysign(0, -1)), variant.Int(0), variant.Float(0),
		variant.Int(1<<53 + 1), variant.Int(1 << 53), variant.Float(1 << 53), variant.Int(-7),
	}
	e := New(opts...)
	load := func(name string, cols []string, rows [][]variant.Value) {
		tab, err := e.Catalog().CreateTable(name, cols)
		if err != nil {
			t.Fatal(err)
		}
		tab.SetTargetPartitionBytes(256)
		for _, r := range rows {
			if err := tab.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	var probe, unique, dups, mixed [][]variant.Value
	for i := 0; i < 60; i++ {
		k := nums[i%len(nums)]
		if i%17 == 0 {
			k = variant.Null
		}
		probe = append(probe, []variant.Value{variant.Int(int64(i)), k})
	}
	for i, k := range []variant.Value{
		variant.Int(1), variant.Float(2.5), variant.Float(math.NaN()), variant.Float(math.Copysign(0, -1)),
		variant.Int(0), variant.Int(1<<53 + 1), variant.Int(-7), variant.Int(2),
	} {
		unique = append(unique, []variant.Value{k, variant.Int(int64(100 + i))})
	}
	for i, k := range nums {
		for d := 0; d < 3; d++ {
			dups = append(dups, []variant.Value{k, variant.Int(int64(200 + 3*i + d))})
		}
		mixed = append(mixed, []variant.Value{k, variant.Int(int64(300 + i))})
	}
	mixed = append(mixed, []variant.Value{variant.String("1"), variant.Int(400)}, []variant.Value{variant.Null, variant.Int(401)})
	load("p", []string{"id", "pk"}, probe)
	load("bu", []string{"bk", "bn"}, unique)
	load("bd", []string{"bk", "bn"}, dups)
	load("bs", []string{"bk", "bn"}, mixed)
	return e
}

// TestJoinKeyClassesMatchByteKeys: the numeric table and the streaming probe
// return exactly the rows of the byte-keyed, gathering join
// (Engine.byteKeyedJoin) — 1 meets 1.0, NaN meets NaN, +0 and -0 stay apart,
// integers beyond 2^53 collapse onto their float — for a unique, a
// duplicate-key and a mixed-kind build, INNER and LEFT OUTER, with and
// without a residual, at every batch size, parallelism and build side, and
// under a memory limit that spills the build, with recycled storage
// poisoned.
func TestJoinKeyClassesMatchByteKeys(t *testing.T) {
	var queries []string
	for _, b := range []string{"bu", "bd", "bs"} {
		for _, kind := range []string{"INNER", "LEFT OUTER"} {
			for _, residual := range []string{"", ` AND "id" % 3 <> "bn" % 2`} {
				queries = append(queries, fmt.Sprintf(
					`SELECT "id", "pk", "bk", "bn" FROM "p" %s JOIN "%s" ON "pk" = "bk"%s`, kind, b, residual))
			}
		}
		// The shape a left build takes: the build is the small left input.
		queries = append(queries, fmt.Sprintf(`SELECT "bk", "bn", "id" FROM "%s" INNER JOIN "p" ON "bk" = "pk"`, b))
	}
	oracle := keyClassEngine(t, WithParallelism(1), WithTypedColumns(false))
	oracle.byteKeyedJoin = true
	want := make([]string, len(queries))
	for i, q := range queries {
		want[i] = renderRows(mustQuery(t, oracle, q))
	}
	poisonRecycling(t)
	for _, bs := range []int{1, 5, 1024} {
		for _, par := range []int{1, 4} {
			for _, limit := range []int64{0, 1 << 10} {
				for _, side := range []buildSide{buildAuto, buildLeft} {
					e := keyClassEngine(t, WithBatchSize(bs), WithParallelism(par), WithMemLimit(limit), planChecked())
					e.forceBuild = side
					for i, q := range queries {
						if got := renderRows(mustQuery(t, e, q)); got != want[i] {
							t.Errorf("bs=%d par=%d limit=%d side=%d: %s\ngot:\n%s\nwant:\n%s", bs, par, limit, side, q, got, want[i])
						}
					}
				}
			}
		}
	}
}

// TestJoinAnalyzeNamesTable: EXPLAIN ANALYZE names the table each join built
// — a unique numeric build streams, a duplicate one gathers, dense integer
// keys map directly, a build with a non-number key or two keys is keyed by
// bytes — and counts the key vectors it read typed, converting none; plain
// EXPLAIN says nothing of it.
func TestJoinAnalyzeNamesTable(t *testing.T) {
	typed, mixed := multiPartEngine(t), keyClassEngine(t)
	for _, c := range []struct {
		e          *Engine
		sql, table string
		typedKeys  bool
	}{
		{typed, `SELECT "id", "v" FROM "events" INNER JOIN (SELECT "id" AS "i2", "val" AS "v" FROM "events" WHERE "id" < 40) ON "id" = "i2"`,
			" build=right rows=500/500 table=number unique direct ", true},
		{typed, `SELECT "id", "dn" FROM "events" LEFT OUTER JOIN "dim" ON "grp" = "dk"`, " table=number direct ", true},
		{typed, `SELECT "id" FROM "events" INNER JOIN (SELECT "id" AS "i2", "grp" AS "g2" FROM "events" WHERE "id" < 40) ON "id" = "i2" AND "grp" = "g2"`,
			" table=bytes unique ", true},
		{typed, `SELECT "dn", "id" FROM "dim" INNER JOIN "events" ON "dk" = "grp"`, " build=left rows=40/500 table=number direct ", true},
		{mixed, `SELECT "id", "bn" FROM "p" INNER JOIN "bu" ON "pk" = "bk"`, " table=number unique ", false},
		{mixed, `SELECT "id", "bn" FROM "p" INNER JOIN "bs" ON "pk" = "bk"`, " table=bytes ", false},
	} {
		_, ps, err := c.e.QueryAnalyze(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		var join *PlanStats
		ps.Walk(func(_ int, n *PlanStats) {
			if strings.HasSuffix(n.Op, "Join") {
				join = n
			}
		})
		if line := join.Op + " " + join.Detail + " "; !strings.Contains(line, c.table) {
			t.Errorf("%s: join line %q lacks %q", c.sql, line, c.table)
		}
		if (join.ExprTyped > 0) != c.typedKeys || join.ExprFallback != 0 {
			t.Errorf("%s: join read typed=%d fallback=%d key vectors, want typed > 0: %v, no fallback",
				c.sql, join.ExprTyped, join.ExprFallback, c.typedKeys)
		}
		plan, err := c.e.Explain(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, "table=") {
			t.Errorf("plain EXPLAIN names a table:\n%s", plan)
		}
	}
}

// TestNumberKeyIsGroupKeyPayload: the numeric table's key is the byte
// encoding's payload, so both tables key the same classes.
func TestNumberKeyIsGroupKeyPayload(t *testing.T) {
	for _, v := range []variant.Value{
		variant.Int(1), variant.Float(1), variant.Float(math.NaN()), variant.Float(-math.NaN()),
		variant.Float(math.Copysign(0, -1)), variant.Int(0), variant.Int(1<<53 + 1), variant.Float(math.Inf(-1)),
	} {
		kh := &vector.Batch{Cols: [][]variant.Value{{v}}}
		bits, c := numKeyAt(kh, 0)
		if c != keyNumber {
			t.Fatalf("%v: class %d", v, c)
		}
		enc := v.AppendGroupKey(nil)
		if got := variant.Float(math.Float64frombits(bits)).AppendGroupKey(nil); string(got) != string(enc) {
			t.Errorf("%v: number key %x re-encodes to %x, want %x", v, bits, got, enc)
		}
	}
}

// TestDirectMapMatchesProbe: a table maps its keys directly exactly when
// they are dense integers below 2^52 — not with -0, a fraction, NaN, keys
// past 2^52 or keys spread too thin — and a typed int64 probe through the
// map finds the slots the probe loop finds: in range and out of it, either
// side of the keys, at int64's ends, and NULL.
func TestDirectMapMatchesProbe(t *testing.T) {
	ints := func(lo, n, step int) []float64 {
		var out []float64
		for i := 0; i < n; i++ {
			out = append(out, float64(lo+i*step))
		}
		return out
	}
	for _, c := range []struct {
		name   string
		keys   []float64
		direct bool
	}{
		{"dense", ints(1, 100, 1), true},
		{"negative", ints(-50, 40, 3), true},
		{"one", []float64{7}, true},
		{"minus-zero", append(ints(1, 10, 1), math.Copysign(0, -1)), false},
		{"fraction", append(ints(1, 10, 1), 2.5), false},
		{"nan", append(ints(1, 10, 1), math.NaN()), false},
		{"past-2^52", []float64{1 << 52, 1<<52 + 1}, false},
		{"sparse", ints(19920101, 40, 10000), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			k := &buildKeys{num: true}
			for _, f := range c.keys {
				k.nums = append(k.nums, variant.NumberKey(f))
			}
			var tab joinTable
			tab.alloc(k)
			for r := range k.nums {
				tab.insert(int32(r))
			}
			tab.mapDirect()
			if (tab.direct != nil) != c.direct {
				t.Fatalf("direct map %v, want %v", tab.direct != nil, c.direct)
			}
			probe := []int64{math.MinInt64, math.MaxInt64, -1 << 53, 1<<53 + 1}
			for x := int64(-60); x <= 120; x++ {
				probe = append(probe, x)
			}
			nulls := make([]uint64, vector.NullBitmapWords(len(probe)))
			vector.SetNullBit(nulls, 10)
			kh := &vector.Batch{Cols: make([][]variant.Value, 1), Typed: []*vector.TypedCol{vector.NewInt64Col(probe, nulls)}}
			sel := make([]int, len(probe))
			for i := range sel {
				sel[i] = i
			}
			got, _ := tab.lookup(kh, sel, len(probe), nil, nil)
			tab.direct = nil
			want, _ := tab.lookup(kh, sel, len(probe), nil, nil)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("direct lookup %v\nprobe loop    %v", got, want)
			}
		})
	}
}
