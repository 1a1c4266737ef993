package adl

import (
	"strings"
	"testing"

	"jsonpark/internal/engine"
	"jsonpark/internal/hepdata"
	"jsonpark/internal/snowpark"
	"jsonpark/internal/vector"
)

const parityEvents = 400

func renderResult(res *engine.Result) string {
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

// TestADLBatchSizeParity runs every ADL query — translated (per-query
// strategy) and handwritten — under several executor configurations and
// requires the raw result rows to be byte-identical to the batch-size-1
// sequential reference, which reproduces the row-at-a-time executor's
// behaviour exactly.
func TestADLBatchSizeParity(t *testing.T) {
	configs := []struct {
		name                   string
		batchSize, parallelism int
		memLimit               int64
		// poison overwrites every recycled register, FLATTEN column and filter
		// selection before reuse (vector.SetPoison): a consumer that kept a
		// streamed batch past its producer's next NextBatch diverges here.
		poison bool
		// partBytes > 0 cuts the table into micro-partitions of that size, so
		// the exchanges fan out over many morsels and the parallel aggregate
		// splits q1–q3 (one partition is one morsel at this event count).
		partBytes int64
	}{
		{"bs1-seq", 1, 1, 0, false, 0},
		{"bs1024-seq", 1024, 1, 0, false, 0},
		{"bs1-par4", 1, 4, 0, false, 0},
		{"bs1024-par4", 1024, 4, 0, false, 0},
		{"bs1024-par", 1024, 0, 0, false, 0}, // 0 = NumCPU workers
		// Governed rows: the 64KiB breaker budget forces the benchmark
		// queries to spill, and spilled results must stay byte-identical.
		{"bs1024-seq-64k", 1024, 1, 64 * 1024, false, 0},
		{"bs1024-par4-64k", 1024, 4, 64 * 1024, false, 0},
		// Batch-lifetime rows: batch sizes 1, 2, 7, 1024 × parallelism 1, 4,
		// poisoned, plus one poisoned spilling row.
		{"poison-bs1-seq", 1, 1, 0, true, 0},
		{"poison-bs1-par4", 1, 4, 0, true, 0},
		{"poison-bs2-seq", 2, 1, 0, true, 0},
		{"poison-bs2-par4", 2, 4, 0, true, 0},
		{"poison-bs7-seq", 7, 1, 0, true, 0},
		{"poison-bs7-par4", 7, 4, 0, true, 0},
		{"poison-bs1024-seq", 1024, 1, 0, true, 0},
		{"poison-bs1024-par4", 1024, 4, 0, true, 0},
		{"poison-bs1024-par4-64k", 1024, 4, 64 * 1024, true, 0},
		// Exchange rows: parallelism 2 (this box's, and adl_exec's), one
		// partition and many.
		{"bs1024-par2", 1024, 2, 0, false, 0},
		{"poison-bs7-par2", 7, 2, 0, true, 0},
		{"poison-bs1024-par2-parts", 1024, 2, 0, true, 16 << 10},
		{"poison-bs7-par4-parts", 7, 4, 0, true, 16 << 10},
	}
	defer vector.SetPoison(false)
	type ref struct{ translated, handwritten string }
	var want map[string]ref
	for _, cfg := range configs {
		vector.SetPoison(cfg.poison)
		sess := paritySession(t, cfg.batchSize, cfg.parallelism, cfg.memLimit, cfg.partBytes)
		var spills int64
		got := make(map[string]ref)
		for _, q := range Queries() {
			_, tres, err := RunTranslated(sess, q, nil)
			if err != nil {
				t.Fatalf("%s [%s]: %v", q.ID, cfg.name, err)
			}
			_, hres, err := RunHandwritten(sess.Engine(), q)
			if err != nil {
				t.Fatalf("%s [%s]: %v", q.ID, cfg.name, err)
			}
			spills += tres.Metrics.Spills + hres.Metrics.Spills
			got[q.ID] = ref{renderResult(tres), renderResult(hres)}
		}
		if cfg.memLimit > 0 && spills == 0 {
			t.Errorf("[%s] no ADL query spilled under the %d-byte budget", cfg.name, cfg.memLimit)
		}
		if cfg.memLimit == 0 && spills != 0 {
			t.Errorf("[%s] unlimited run reported %d spills", cfg.name, spills)
		}
		if want == nil {
			want = got
			continue
		}
		for _, q := range Queries() {
			if got[q.ID].translated != want[q.ID].translated {
				t.Errorf("%s translated: %s diverges from %s", q.ID, cfg.name, configs[0].name)
			}
			if got[q.ID].handwritten != want[q.ID].handwritten {
				t.Errorf("%s handwritten: %s diverges from %s", q.ID, cfg.name, configs[0].name)
			}
		}
	}
}

// paritySession loads the parity dataset into a fresh engine, cut into
// micro-partitions of partBytes when > 0.
func paritySession(t *testing.T, batchSize, parallelism int, memLimit, partBytes int64) *snowpark.Session {
	t.Helper()
	opts := []engine.Option{engine.WithBatchSize(batchSize), engine.WithParallelism(parallelism),
		engine.WithMemLimit(memLimit)}
	if partBytes == 0 {
		sess, _, err := Setup(42, parityEvents, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	eng := engine.New(append(opts, engine.WithPlanCacheSize(-1))...)
	tab, err := eng.Catalog().CreateTable("adl", hepdata.Columns())
	if err != nil {
		t.Fatal(err)
	}
	tab.SetTargetPartitionBytes(partBytes)
	for _, d := range hepdata.Events(42, parityEvents) {
		if err := tab.AppendObject(d); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(tab.Partitions()); n < 4 {
		t.Fatalf("%d-byte partitions cut the parity table into %d partitions, want several", partBytes, n)
	}
	return snowpark.NewSession(eng)
}
