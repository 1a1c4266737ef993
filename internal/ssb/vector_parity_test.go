package ssb

import (
	"strings"
	"testing"

	"jsonpark/internal/engine"
	"jsonpark/internal/vector"
)

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

// TestSSBBatchSizeParity runs all thirteen SSB queries under several
// executor configurations and requires raw result rows byte-identical to
// the batch-size-1 sequential reference.
func TestSSBBatchSizeParity(t *testing.T) {
	configs := []struct {
		name                   string
		batchSize, parallelism int
		memLimit               int64
		// poison overwrites every recycled register, FLATTEN column and filter
		// selection before reuse (vector.SetPoison): a consumer that kept a
		// streamed batch past its producer's next NextBatch diverges here.
		poison bool
	}{
		{"bs1-seq", 1, 1, 0, false},
		{"bs1024-seq", 1024, 1, 0, false},
		{"bs1-par4", 1, 4, 0, false},
		{"bs1024-par4", 1024, 4, 0, false},
		{"bs1024-par", 1024, 0, 0, false}, // 0 = NumCPU workers
		// Governed rows: the 64KiB breaker budget forces the SSB queries to
		// spill, and spilled results must stay byte-identical.
		{"bs1024-seq-64k", 1024, 1, 64 * 1024, false},
		{"bs1024-par4-64k", 1024, 4, 64 * 1024, false},
		// Batch-lifetime rows: batch sizes 1, 2, 7, 1024 × parallelism 1, 4,
		// poisoned, plus one poisoned spilling row.
		{"poison-bs1-seq", 1, 1, 0, true},
		{"poison-bs1-par4", 1, 4, 0, true},
		{"poison-bs2-seq", 2, 1, 0, true},
		{"poison-bs2-par4", 2, 4, 0, true},
		{"poison-bs7-seq", 7, 1, 0, true},
		{"poison-bs7-par4", 7, 4, 0, true},
		{"poison-bs1024-seq", 1024, 1, 0, true},
		{"poison-bs1024-par4", 1024, 4, 0, true},
		{"poison-bs1024-par4-64k", 1024, 4, 64 * 1024, true},
	}
	defer vector.SetPoison(false)
	type ref struct{ translated, handwritten string }
	var want map[string]ref
	for _, cfg := range configs {
		vector.SetPoison(cfg.poison)
		sess, err := Setup(7, 0.5, engine.WithBatchSize(cfg.batchSize),
			engine.WithParallelism(cfg.parallelism), engine.WithMemLimit(cfg.memLimit))
		if err != nil {
			t.Fatal(err)
		}
		var spills int64
		got := make(map[string]ref)
		for _, q := range Queries() {
			_, tres, err := RunTranslated(sess, q)
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
			t.Errorf("[%s] no SSB query spilled under the %d-byte budget", cfg.name, cfg.memLimit)
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
