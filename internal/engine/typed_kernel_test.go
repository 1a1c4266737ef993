package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// typedKernelEngine loads a table whose columns hit every typed encoding:
// i int64 (with NULLs), f float64, s low-cardinality string (dictionary),
// u unique string (plain), b bool, and m a nested object (variant). Small
// partitions force multiple chunks so kernels see partition boundaries.
func typedKernelEngine(t *testing.T, opts ...Option) *Engine {
	t.Helper()
	e := New(opts...)
	tab, err := e.Catalog().CreateTable("tk", []string{"i", "f", "s", "u", "b", "m"})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetTargetPartitionBytes(512)
	for k := 0; k < 120; k++ {
		row := []variant.Value{
			variant.Int(int64(k - 10)),
			variant.Float(float64(k) / 4.0),
			variant.String(fmt.Sprintf("tag%d", k%3)),
			variant.String(fmt.Sprintf("u%03d", k)),
			variant.Bool(k%2 == 0),
			variant.ObjectFromPairs("x", variant.Int(int64(k))),
		}
		if k%11 == 0 {
			row[0] = variant.Null
		}
		if k%13 == 0 {
			row[4] = variant.Null
		}
		if err := tab.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// typedKernelQueries exercise every kernel shape: comparisons col⊗lit in
// both orders, col⊗col (same and mixed numeric ranks, dict and plain
// strings), cross-rank constants, arithmetic with a left-hand literal (the
// operand-order regression), division's always-float contract, IS [NOT]
// NULL off the bitmap, and kernels under AND-restricted selections.
var typedKernelQueries = []string{
	`SELECT "i" FROM "tk" WHERE "i" > 50`,
	`SELECT "i" FROM "tk" WHERE "i" >= 50`,
	`SELECT "i" FROM "tk" WHERE "i" < 0`,
	`SELECT "i" FROM "tk" WHERE "i" <= 0`,
	`SELECT "i" FROM "tk" WHERE "i" = 42`,
	`SELECT "i" FROM "tk" WHERE "i" <> 42`,
	`SELECT "i" FROM "tk" WHERE 50 > "i"`,
	`SELECT "i" FROM "tk" WHERE "i" > 2.5`,
	`SELECT "f" FROM "tk" WHERE "f" > 14.25`,
	`SELECT "f" FROM "tk" WHERE 14.25 >= "f"`,
	`SELECT "u" FROM "tk" WHERE "s" = 'tag1'`,
	`SELECT "u" FROM "tk" WHERE "s" <> 'tag2'`,
	`SELECT "u" FROM "tk" WHERE "u" < 'u010'`,
	`SELECT "u" FROM "tk" WHERE 'u100' <= "u"`,
	`SELECT "i" FROM "tk" WHERE "b" = TRUE`,
	`SELECT "i" FROM "tk" WHERE "b" <> FALSE`,
	`SELECT "i" FROM "tk" WHERE "i" < "f"`,
	`SELECT "i" FROM "tk" WHERE "i" = "i"`,
	`SELECT "i" FROM "tk" WHERE "s" = "u"`,
	`SELECT "i" FROM "tk" WHERE "i" < "s"`,
	`SELECT "i" FROM "tk" WHERE "s" < 5`,
	`SELECT "i" FROM "tk" WHERE "i" IS NULL`,
	`SELECT "i" FROM "tk" WHERE "i" IS NOT NULL`,
	`SELECT "b" FROM "tk" WHERE "b" IS NULL`,
	`SELECT "u" FROM "tk" WHERE "m" IS NOT NULL`,
	`SELECT "i" + 1 FROM "tk"`,
	`SELECT "i" - 2 FROM "tk"`,
	`SELECT "i" * 3 FROM "tk"`,
	`SELECT "i" / 2 FROM "tk"`,
	`SELECT "i" % 7 FROM "tk"`,
	`SELECT 10 - "i" FROM "tk"`,
	`SELECT 100 / "f" FROM "tk" WHERE "f" > 0`,
	`SELECT "i" + "f" FROM "tk"`,
	`SELECT "i" * "i" FROM "tk"`,
	`SELECT "f" - "i" FROM "tk"`,
	`SELECT "i" FROM "tk" WHERE "i" > 2 AND "f" < 20`,
	`SELECT "i" FROM "tk" WHERE "i" > 100 OR "s" = 'tag0'`,
	`SELECT SUM("i"), MIN("f"), MAX("u") FROM "tk"`,
	`SELECT "s", COUNT(*) FROM "tk" GROUP BY "s" ORDER BY "s"`,
	// Computed operands: typed registers feeding typed kernels, typed
	// projection outputs, and register-typed conditions.
	`SELECT ("i" + 1) * 2, ("i" - "f") / 4, ("i" * 3) % 7, -("i" + 1), -"f" FROM "tk"`,
	`SELECT SQRT(ABS("f" - 10)), SIN("i" * 0.5), ATAN2("f", "i" + 1), POWER("i", 2), SQUARE("f" + 1) FROM "tk"`,
	`SELECT FLOOR("f" * 1.5), CEIL("i" / 4), ROUND("f"), TRUNC(-"f"), FLOOR("i") FROM "tk"`,
	`SELECT "i" FROM "tk" WHERE ("i" + 1) % 3 = 0 AND NOT ("f" > 10)`,
	`SELECT "i" FROM "tk" WHERE "i" * 2 > "f" OR ("i" IS NULL AND "b")`,
	`SELECT "i" + 1 > "f", NOT "b", "b" AND "i" > 5, "b" OR "i" < 0, ("i" + 1) IS NULL FROM "tk"`,
	`SELECT IFF("b", "i", "i" * 2), IFF("i" > 50, "f", NULL), IFF("b", 1.5, "f") FROM "tk"`,
	`SELECT GET(ARRAY_CONSTRUCT(10, 20.5, 'x'), "i" % 3), GET(ARRAY_CONSTRUCT(1, 2, 3), "f") FROM "tk" WHERE "i" >= 0`,
	`SELECT GET("m", 'x') + 1, GET("m", 'x') * "f", GET("m", 'y') FROM "tk"`,
	`SELECT CASE WHEN "i" > 5 THEN "f" * 2 WHEN "b" THEN "i" + 1 ELSE 0 END FROM "tk"`,
	`SELECT "i" + NULL, NULL * "f", "i" = NULL, "s" < 'tag1', 'tag1' > "s", "u" = "s" FROM "tk"`,
	`SELECT "s", COUNT(*) FROM "tk" WHERE "f" * 4 > "i" GROUP BY "s" ORDER BY "s"`,
}

// TestTypedKernelParity is the typed-vs-variant oracle: every query must
// render byte-identically with typed shredding on (kernels live), off
// (pure variant path), and on with parallel morsel scans.
func TestTypedKernelParity(t *testing.T) {
	oracle := typedKernelEngine(t, WithTypedColumns(false), WithParallelism(1))
	cells := map[string]*Engine{
		"typed-seq":  typedKernelEngine(t, WithParallelism(1)),
		"typed-par4": typedKernelEngine(t, WithParallelism(4)),
		"typed-bs7":  typedKernelEngine(t, WithParallelism(1), WithBatchSize(7)),
	}
	for _, q := range typedKernelQueries {
		want := renderRows(mustQuery(t, oracle, q))
		for name, e := range cells {
			got := renderRows(mustQuery(t, e, q))
			if got != want {
				t.Errorf("[%s] %s\nvariant oracle:\n%s\ntyped:\n%s", name, q, want, got)
			}
		}
	}
}

// TestTypedKernelErrorParity: runtime errors (integer division/mod by
// zero) must carry the exact variant-path message through the typed path.
func TestTypedKernelErrorParity(t *testing.T) {
	variantEng := typedKernelEngine(t, WithTypedColumns(false))
	typedEng := typedKernelEngine(t)
	for _, q := range []string{
		`SELECT "i" / 0 FROM "tk"`,
		`SELECT "i" % 0 FROM "tk"`,
		`SELECT 5 % ("i" - "i") FROM "tk"`,
		`SELECT ("i" + 1) / 0 FROM "tk"`,
		`SELECT ("i" * 2) % 0 FROM "tk"`,
		`SELECT ("i" + 1) % ("i" - "i") FROM "tk"`,
		`SELECT -"b" FROM "tk"`,
		`SELECT "s" * 2 FROM "tk"`,
	} {
		_, verr := variantEng.Query(q)
		_, terr := typedEng.Query(q)
		if verr == nil || terr == nil {
			t.Fatalf("%s: variant err=%v typed err=%v (want both non-nil)", q, verr, terr)
		}
		if verr.Error() != terr.Error() {
			t.Errorf("%s: error mismatch\nvariant: %v\ntyped:   %v", q, verr, terr)
		}
	}
	// Float division or modulo by zero is NOT an error on either path.
	for _, q := range []string{`SELECT "f" / 0 FROM "tk"`, `SELECT ("f" * 2) % 0, ("i" + 0.5) / 0 FROM "tk"`} {
		want := renderRows(mustQuery(t, variantEng, q))
		if got := renderRows(mustQuery(t, typedEng, q)); got != want {
			t.Errorf("%s:\nvariant:\n%s\ntyped:\n%s", q, want, got)
		}
	}
}

// ARRAY_RANGE's span check cannot overflow: bounds further apart than an
// int64 holds fail with "span too large", as a select item and as a FLATTEN
// input, typed or not, on the driver and on exchange workers — where a
// panic would take the server down.
func TestArrayRangeSpanOverflow(t *testing.T) {
	for _, typed := range []bool{true, false} {
		for _, par := range []int{1, 4} {
			e := New(WithTypedColumns(typed), WithParallelism(par))
			e.morselRows = 2
			tab, err := e.Catalog().CreateTable("t", []string{"a"})
			if err != nil {
				t.Fatal(err)
			}
			for _, a := range []int64{3, 5, math.MaxInt64, 2} {
				if err := tab.Append([]variant.Value{variant.Int(a)}); err != nil {
					t.Fatal(err)
				}
			}
			for _, q := range []string{
				`SELECT ARRAY_RANGE(-10, "a") FROM "t"`,
				`SELECT "f".VALUE FROM (SELECT * FROM "t"), LATERAL FLATTEN(INPUT => ARRAY_RANGE(-10, "a")) AS "f"`,
			} {
				if _, err := e.Query(q); err == nil || !strings.Contains(err.Error(), "ARRAY_RANGE span too large (9223372036854775817)") {
					t.Errorf("typed=%v par=%d %s: err = %v, want span too large", typed, par, q, err)
				}
			}
		}
	}
}

// FLOOR, CEIL, ROUND and TRUNC return an integer only when the rounded
// double has one, and a typed column takes the same rule: doubles outside
// the int64 range stay doubles instead of becoming math.MinInt64.
func TestRoundingKeepsUnrepresentableDoubles(t *testing.T) {
	load := func(typed bool, vals ...float64) *Engine {
		e := New(WithTypedColumns(typed), WithParallelism(1))
		tab, err := e.Catalog().CreateTable("t", []string{"d"})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			if err := tab.Append([]variant.Value{variant.Float(v)}); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	r := mustQuery(t, load(true, 0), `SELECT FLOOR(1e300), ROUND(1e300), CEIL(-1e19), TRUNC(-9.223372036854775808e18), FLOOR(2.5) FROM "t"`)
	if got := renderRows(r); got != "1e+300\t1e+300\t-1e+19\t-9223372036854775808\t2\t\n" {
		t.Errorf("literal rounding = %q", got)
	}
	for _, vals := range [][]float64{{1.5, -2.5, 7}, {1.5, 1e300, -1e19, 2.5}, {math.NaN(), 1.5}} {
		q := `SELECT FLOOR("d"), CEIL("d"), ROUND("d"), TRUNC("d") FROM "t"`
		want := renderRows(mustQuery(t, load(false, vals...), q))
		if got := renderRows(mustQuery(t, load(true, vals...), q)); got != want {
			t.Errorf("%v: typed\n%s\nvariant\n%s", vals, got, want)
		}
	}
}

// A comparison against a dictionary-encoded column keeps its per-dictionary
// result table on its instance: batch after batch of one chunk allocates
// nothing.
func TestDictComparisonAllocatesNothing(t *testing.T) {
	dict := []string{"tag0", "tag1", "tag2"}
	codes := make([]uint32, 1024)
	for i := range codes {
		codes[i] = uint32(i % 3)
	}
	b := &vector.Batch{Cols: make([][]variant.Value, 1), Typed: []*vector.TypedCol{vector.NewDictCol(dict, codes, nil)}}
	d, err := compileVec(nil, nil, NewSchema([]string{"s"}), sqlast.B(">=", sqlast.C("s"), sqlast.L(variant.String("tag1"))))
	if err != nil {
		t.Fatal(err)
	}
	var sel []int
	run := func() {
		if sel, err = d.selectTrue(b, sel[:0]); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if len(sel) != 682 {
		t.Fatalf("selected %d rows, want 682", len(sel))
	}
	if n := testing.AllocsPerRun(100, run); n != 0 {
		t.Errorf("dictionary comparison allocates %v times per batch, want 0", n)
	}
}

// TestTypedKernelMetrics checks the typed/fallback accounting: a pushed-down
// comparison runs typed (TypedCols > 0, no fallback), grouping by a typed
// column reads it in place (TypedCols > 0, no fallback), while a function
// without a typed kernel materializes its typed operand (FallbackCols > 0) —
// plain projection does NOT, since projectIter passes typed views through
// untouched. In-memory tables never read from disk.
func TestTypedKernelMetrics(t *testing.T) {
	e := typedKernelEngine(t, WithParallelism(1))
	r := mustQuery(t, e, `SELECT COUNT(*) FROM "tk" WHERE "i" > 50`)
	if r.Metrics.TypedCols == 0 {
		t.Errorf("comparison over a typed column reported TypedCols = 0")
	}
	if r.Metrics.DiskReads != 0 {
		t.Errorf("in-memory scan reported DiskReads = %d", r.Metrics.DiskReads)
	}

	r = mustQuery(t, e, `SELECT "u" FROM "tk" WHERE "i" > 100`)
	if r.Metrics.FallbackCols != 0 {
		t.Errorf("pass-through projection reported FallbackCols = %d, want 0", r.Metrics.FallbackCols)
	}

	r = mustQuery(t, e, `SELECT "u", COUNT(*) FROM "tk" GROUP BY "u"`)
	if r.Metrics.TypedCols == 0 || r.Metrics.FallbackCols != 0 {
		t.Errorf("grouping by a typed column reported typed=%d fallback=%d, want typed > 0 and no fallback",
			r.Metrics.TypedCols, r.Metrics.FallbackCols)
	}

	r = mustQuery(t, e, `SELECT CONCAT("u", 'x') FROM "tk"`)
	if r.Metrics.FallbackCols == 0 {
		t.Errorf("CONCAT over a typed column reported FallbackCols = 0")
	}

	off := typedKernelEngine(t, WithTypedColumns(false))
	r = mustQuery(t, off, `SELECT COUNT(*) FROM "tk" WHERE "i" > 50`)
	if r.Metrics.TypedCols != 0 || r.Metrics.FallbackCols != 0 {
		t.Errorf("typed-off engine reported typed=%d fallback=%d",
			r.Metrics.TypedCols, r.Metrics.FallbackCols)
	}
}

// TestTypedStorageAnalyzeClause: EXPLAIN ANALYZE's root carries the
// query-global storage[...] clause when the typed path was exercised.
func TestTypedStorageAnalyzeClause(t *testing.T) {
	e := typedKernelEngine(t)
	p, err := e.PrepareOpts(`SELECT COUNT(*) FROM "tk" WHERE "i" > 50`, PrepareOptions{Analyze: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	ps := p.PlanStats()
	if ps == nil || ps.TypedCols == 0 {
		t.Fatalf("PlanStats root missing typed counters: %+v", ps)
	}
	if !strings.Contains(ps.Render(), "storage[typed=") {
		t.Errorf("Render lacks storage clause:\n%s", ps.Render())
	}
}

// TestEngineDataDirRestart: a WithDataDir engine's tables survive a
// restart; the first query cold-loads partitions (DiskReads > 0), repeat
// queries serve from memory, and rows come back byte-identical.
func TestEngineDataDirRestart(t *testing.T) {
	dir := t.TempDir()
	e1 := typedKernelEngine(t, WithDataDir(dir))
	want := renderRows(mustQuery(t, e1, `SELECT * FROM "tk" ORDER BY "u"`))
	if err := e1.Catalog().Flush(); err != nil {
		t.Fatal(err)
	}

	e2 := New(WithDataDir(dir))
	r, err := e2.Query(`SELECT * FROM "tk" ORDER BY "u"`)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRows(r); got != want {
		t.Errorf("restarted rows differ\nwant:\n%s\ngot:\n%s", want, got)
	}
	if r.Metrics.DiskReads == 0 {
		t.Errorf("restarted scan reported DiskReads = 0")
	}
	r2 := mustQuery(t, e2, `SELECT * FROM "tk" ORDER BY "u"`)
	if r2.Metrics.DiskReads != 0 {
		t.Errorf("second scan re-read %d partitions from disk", r2.Metrics.DiskReads)
	}
	// Header zone maps prune cold partitions without loading them.
	r3 := New(WithDataDir(dir))
	res3, err := r3.Query(`SELECT COUNT(*) FROM "tk" WHERE "i" > 1000000`)
	if err != nil {
		t.Fatal(err)
	}
	if res3.Metrics.PartitionsPruned == 0 {
		t.Errorf("header zone maps pruned nothing")
	}
	if res3.Metrics.DiskReads != 0 {
		t.Errorf("pruned-out query still read %d partitions", res3.Metrics.DiskReads)
	}
}

// TestTypedCompareOrdersNaNLast: the typed comparison kernel orders NaN as
// variant.Compare does — equal to NaN, above +Inf — so a typed and a variant
// engine select the same rows, and MAX over a NaN is NaN.
func TestTypedCompareOrdersNaNLast(t *testing.T) {
	load := func(opts ...Option) *Engine {
		e := New(opts...)
		tab, err := e.Catalog().CreateTable("t", []string{"id", "v"})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if err := tab.Append([]variant.Value{variant.Int(int64(i)), variant.Float(float64(i%7) - 2)}); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	typed, off := load(), load(WithTypedColumns(false))
	for _, sql := range []string{
		`SELECT "id" FROM "t" WHERE SQRT("v") > 1e308`,
		`SELECT "id" FROM "t" WHERE SQRT("v") = SQRT("v") AND SQRT("v") >= SQRT(0 - 1)`,
		`SELECT "id", SQRT("v") < "v" AS "lt" FROM "t"`,
		`SELECT COUNT(*) FROM "t" WHERE SQRT("v") <> SQRT(0 - 1)`,
	} {
		want := renderRows(mustQuery(t, off, sql))
		if got := renderRows(mustQuery(t, typed, sql)); got != want {
			t.Errorf("%s: typed diverges\ngot:\n%s\nwant:\n%s", sql, got, want)
		}
	}
	if got := renderRows(mustQuery(t, off, `SELECT COUNT(*) FROM "t" WHERE SQRT("v") > 1e308`)); got != "15\t\n" {
		t.Errorf("NaN rows above 1e308: %q, want 15", got)
	}
}

// TestStoredNaNZoneMapsPruneAlike: zone maps over a stored float column
// holding NaN order it as variant.Compare does — NaN the max, the min only
// when every value is NaN — so pruning keeps every partition with a matching
// row, typed columns on or off. Small partitions, some starting with NaN,
// make the zone maps decide.
func TestStoredNaNZoneMapsPruneAlike(t *testing.T) {
	const rows = 60
	v := func(i int) float64 {
		if i%5 == 0 {
			return math.NaN()
		}
		return float64(i % 4)
	}
	load := func(opts ...Option) *Engine {
		e := New(opts...)
		tab, err := e.Catalog().CreateTable("t", []string{"id", "v"})
		if err != nil {
			t.Fatal(err)
		}
		tab.SetTargetPartitionBytes(128)
		for i := 0; i < rows; i++ {
			if err := tab.Append([]variant.Value{variant.Int(int64(i)), variant.Float(v(i))}); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	typed, off := load(), load(WithTypedColumns(false))
	var pruned int64
	for _, c := range []struct {
		sql  string
		want func(x float64) bool
	}{
		{`SELECT COUNT(*) FROM "t" WHERE "v" > 1e308`, math.IsNaN},
		{`SELECT COUNT(*) FROM "t" WHERE "v" = 1`, func(x float64) bool { return x == 1 }},
		{`SELECT COUNT(*) FROM "t" WHERE "v" < 5`, func(x float64) bool { return x < 5 }},
		{`SELECT COUNT(*) FROM "t" WHERE "v" >= 3`, func(x float64) bool { return x >= 3 || math.IsNaN(x) }},
		{`SELECT COUNT(*) FROM "t" WHERE "v" = 7`, func(float64) bool { return false }},
	} {
		n := 0
		for i := 0; i < rows; i++ {
			if c.want(v(i)) {
				n++
			}
		}
		want := fmt.Sprintf("%d\t\n", n)
		for name, e := range map[string]*Engine{"typed": typed, "variant": off} {
			r := mustQuery(t, e, c.sql)
			if got := renderRows(r); got != want {
				t.Errorf("%s (%s columns) = %q, want %q", c.sql, name, got, want)
			}
			pruned += r.Metrics.PartitionsPruned
		}
	}
	if pruned == 0 {
		t.Error("zone maps pruned no partition")
	}
}
