package engine

import (
	"fmt"
	"testing"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// benchParallelisms sweeps the worker pool shared by the morsel scan and the
// parallel pipeline breakers (partitioned aggregation, join build).
var benchParallelisms = []int{1, 2, 4, 8}

// benchParEngine builds an engine whose "bpar" fact table seals a partition
// every ~16KiB, so the scan pool and the partitioned pipeline breakers have
// dozens of morsels to distribute, plus a small "bdim" dimension table whose
// keys cover every "grp" value for join probes.
func benchParEngine(b *testing.B, parallelism, rows int) *Engine {
	b.Helper()
	e := New(WithBatchSize(1024), WithParallelism(parallelism))
	tab, err := e.Catalog().CreateTable("bpar", []string{"id", "grp", "val", "items"})
	if err != nil {
		b.Fatal(err)
	}
	tab.SetTargetPartitionBytes(16 << 10)
	for i := 0; i < rows; i++ {
		doc := fmt.Sprintf(`{"id": %d, "grp": %d, "val": %d, "items": [%d, %d, %d, %d]}`,
			i, i%401, i%97, i, i+1, i+2, i+3)
		if err := tab.AppendObject(variant.MustParseJSON(doc)); err != nil {
			b.Fatal(err)
		}
	}
	dim, err := e.Catalog().CreateTable("bdim", []string{"k", "name"})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 401; i++ {
		doc := fmt.Sprintf(`{"k": %d, "name": "dim-%d"}`, i, i)
		if err := dim.AppendObject(variant.MustParseJSON(doc)); err != nil {
			b.Fatal(err)
		}
	}
	return e
}

func runParallelBench(b *testing.B, sql string, rows int) {
	for _, par := range benchParallelisms {
		par := par
		b.Run(fmt.Sprintf("par=%d", par), func(b *testing.B) {
			e := benchParEngine(b, par, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Query(sql); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupAgg measures grouped aggregation over a multi-partition scan:
// the shape where the partitioned two-phase aggregate replaces the single
// pipeline-breaker thread.
func BenchmarkGroupAgg(b *testing.B) {
	runParallelBench(b,
		`SELECT "grp", COUNT(*), MIN("val"), MAX("val") FROM "bpar" GROUP BY "grp"`,
		40000)
}

// BenchmarkReaggParallel measures the paper's flatten → re-aggregate nesting
// pattern (ARRAY_AGG + ANY_VALUE grouped by row ID) with the aggregation
// running above a parallel flatten pipeline.
func BenchmarkReaggParallel(b *testing.B) {
	runParallelBench(b,
		`SELECT "id", ARRAY_AGG("v"), ANY_VALUE("grp") FROM (SELECT "id", "grp", "f".VALUE AS "v" FROM (SELECT * FROM "bpar"), LATERAL FLATTEN(INPUT => "items") AS "f") GROUP BY "id"`,
		8000)
}

// BenchmarkJoinSmallBuild measures a hash join with a small build and a
// large probe: the 401-row "bdim" is at most a quarter of "bpar"'s 40 000
// rows, so the join builds bdim and streams bpar past its table, keeping the
// rows that match.
func BenchmarkJoinSmallBuild(b *testing.B) {
	runParallelBench(b,
		`SELECT COUNT(*) FROM "bdim" INNER JOIN "bpar" ON "k" = "grp"`,
		40000)
}

// BenchmarkJoinLargeBuild measures hash-join build cost on a large build:
// bpar joined to itself on its unique id, so the 40 000-row right input is
// drained, copied and indexed.
func BenchmarkJoinLargeBuild(b *testing.B) {
	runParallelBench(b,
		`SELECT COUNT(*) FROM (SELECT "id" FROM "bpar") INNER JOIN (SELECT "id" AS "i2" FROM "bpar") ON "id" = "i2"`,
		40000)
}

// BenchmarkSort measures a full-table sort of 40 000 rows: the dense copies,
// the key evaluation, one stable sort of row locators and the gathered
// output. The sort is sequential, so there is no worker sweep.
func BenchmarkSort(b *testing.B) {
	e := benchParEngine(b, 1, 40000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(`SELECT "id", "val" FROM "bpar" ORDER BY "val" DESC, "id"`); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJoinProbe times the hash join operator alone, its inputs typed
// int64 batches already in memory: each op builds a 4 096-row table and
// probes 40 960 rows past it, half of whose keys miss. number-unique keys
// the numeric table by distinct numbers, so the probe streams (emitStream);
// number-dup gives each key four build rows, so the probe gathers pairs into
// its recycled registers; bytes-2col joins on two columns, which keys the
// table by the byte encoding of both.
func BenchmarkJoinProbe(b *testing.B) {
	const buildRows, probeBatches, size = 4096, 40, 1024
	ints := func(n int, f func(i int) int64) *vector.TypedCol {
		v := make([]int64, n)
		for i := range v {
			v[i] = f(i)
		}
		return vector.NewInt64Col(v, nil)
	}
	for _, c := range []struct {
		name string
		key  func(i int) int64 // build row i's key
		keys int
	}{
		{"number-unique", func(i int) int64 { return int64(i) }, 1},
		{"number-dup", func(i int) int64 { return int64(i % (buildRows / 4)) }, 1},
		{"bytes-2col", func(i int) int64 { return int64(i) }, 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			var build, probe []*vector.Batch
			for lo := 0; lo < buildRows; lo += size {
				k := ints(size, func(i int) int64 { return c.key(lo + i) })
				build = append(build, &vector.Batch{Cols: make([][]variant.Value, 3),
					Typed: []*vector.TypedCol{k, k, ints(size, func(i int) int64 { return int64(lo + i) })}})
			}
			for p := 0; p < probeBatches; p++ {
				k := ints(size, func(i int) int64 { return int64((p*size + i) % (2 * buildRows)) })
				probe = append(probe, &vector.Batch{Cols: make([][]variant.Value, 3),
					Typed: []*vector.TypedCol{k, k, ints(size, func(i int) int64 { return int64(p*size + i) })}})
			}
			keys := func(names ...string) []sqlast.Expr {
				var out []sqlast.Expr
				for _, n := range names[:c.keys] {
					out = append(out, sqlast.C(n))
				}
				return out
			}
			lk, err := compileVecs(nil, nil, NewSchema([]string{"k", "k2", "id"}), keys("k", "k2"))
			if err != nil {
				b.Fatal(err)
			}
			rk, err := compileVecs(nil, nil, NewSchema([]string{"bk", "bk2", "bn"}), keys("bk", "bk2"))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ctx := &execContext{acct: &memAccountant{}, batchSize: size}
				j := newJoinIter(ctx, "INNER", &staticBatches{batches: probe}, &staticBatches{batches: build},
					joinExprs{left: lk, right: rk}, 3, 3, ctx.opMemFor(nil))
				rows := 0
				for {
					out, err := j.NextBatch()
					if err != nil {
						b.Fatal(err)
					}
					if out == nil {
						break
					}
					rows += out.NumRows()
				}
				j.Close()
				if rows != probeBatches*size/2 { // dup: an eighth of the probe hits, four rows each
					b.Fatalf("joined %d rows, want %d", rows, probeBatches*size/2)
				}
			}
		})
	}
}
