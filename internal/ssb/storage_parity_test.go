package ssb

import (
	"testing"

	"jsonpark/internal/engine"
	"jsonpark/internal/snowpark"
)

// TestSSBStorageParity runs all thirteen SSB queries across the storage
// dimension: variant-only chunks (the v1 layout, the oracle), typed
// shredded chunks, and typed chunks persisted to disk and reloaded into a
// fresh engine. All cells must render byte-identical rows for both the
// translated and handwritten pipelines. SSB is the relational stress for
// typed encodings — the flat scalar columns shred typed almost everywhere.
func TestSSBStorageParity(t *testing.T) {
	const seed, sf = 7, 0.2
	mkSession := func(opts ...engine.Option) *snowpark.Session {
		sess, err := Setup(seed, sf, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	reload := func() *snowpark.Session {
		dir := t.TempDir()
		eng := engine.New(engine.WithDataDir(dir), engine.WithParallelism(1))
		if err := Generate(seed, SizesForScaleFactor(sf)).Load(eng); err != nil {
			t.Fatal(err)
		}
		if err := eng.Catalog().Flush(); err != nil {
			t.Fatal(err)
		}
		return snowpark.NewSession(engine.New(engine.WithDataDir(dir), engine.WithParallelism(1)))
	}

	cells := []struct {
		name string
		sess *snowpark.Session
	}{
		{"variant-only", mkSession(engine.WithTypedColumns(false), engine.WithParallelism(1))},
		{"typed", mkSession(engine.WithParallelism(1))},
		{"typed-par4", mkSession(engine.WithParallelism(4))},
		{"typed-persist-reload", reload()},
	}

	type ref struct{ translated, handwritten string }
	var want map[string]ref
	for _, cell := range cells {
		got := make(map[string]ref)
		for _, q := range Queries() {
			_, tres, err := RunTranslated(cell.sess, q)
			if err != nil {
				t.Fatalf("%s [%s]: %v", q.ID, cell.name, err)
			}
			_, hres, err := RunHandwritten(cell.sess.Engine(), q)
			if err != nil {
				t.Fatalf("%s [%s]: %v", q.ID, cell.name, err)
			}
			got[q.ID] = ref{renderResult(tres), renderResult(hres)}
		}
		if want == nil {
			want = got // variant-only is the oracle
			continue
		}
		for _, q := range Queries() {
			if got[q.ID].translated != want[q.ID].translated {
				t.Errorf("%s translated: %s diverges from variant-only", q.ID, cell.name)
			}
			if got[q.ID].handwritten != want[q.ID].handwritten {
				t.Errorf("%s handwritten: %s diverges from variant-only", q.ID, cell.name)
			}
		}
	}
}

// TestSSBTypedColumnCountersExact pins what the storage-path counters say
// about the thirteen queries at SF 0.5: typed vectors read by typed kernels
// and typed vectors converted to variants, per query, generated and
// handwritten alike. Sharing sub-expressions and loading columns on demand
// must not move them (a shared typed kernel would count once, a column two
// kernels fall back on would convert once).
//
// Typed registers raised the typed counts and left every fallback count
// alone: a comparison's result is now a typed boolean, so besides each
// comparison reading its typed column, every scan filter reads its typed
// condition (+1 per batch) and every AND or OR its two typed operands (+2
// per batch). Per query, with the scanned batches the pushed-down filters
// see (lineorder and date 3 each, customer, supplier and part 1):
//
//	q1.1 12 → 30: lineorder 3 × (2 ANDs + filter) = +15, date 3 × filter = +3
//	q1.2 15 → 39: lineorder 3 × (3 ANDs + filter) = +21, date +3
//	q1.3 18 → 48: lineorder +21, date 3 × (AND + filter) = +9
//	q2.1  2 →  4: part and supplier filters +1 each
//	q2.2  3 →  7: part AND + filter = +3, supplier +1
//	q2.3  2 →  4: part and supplier +1 each
//	q3.1  8 → 19: customer and supplier +1 each, date 3 × (AND + filter) = +9
//	q3.2  8 → 19: as q3.1
//	q3.3 10 → 25: customer and supplier OR + filter = +3 each, date +9
//	q3.4  7 → 16: customer and supplier +3 each, date 3 × filter = +3
//	q4.1  4 →  9: customer and supplier +1 each, part OR + filter = +3
//	q4.2 10 → 24: customer and supplier +1 each, part +3, date 3 × (OR + filter) = +9
//	q4.3  9 → 21: customer, supplier and part +1 each, date +9
//
// The typed hash join then raised them again and took every fallback count
// to 0: each join reads its key vectors typed on both sides (+1 per key
// vector per batch, build and probe) where it converted the probe's (the
// old fallbacks: 3 lineorder batches in q1.x and q2.x, the one customer or
// supplier batch of a left build in q3.x and q4.x), and emits typed columns
// that the hash aggregate reads in place (+1 per typed input vector per
// batch) rather than converting.
//
// Typed join pairs raised the typed counts once more, fallbacks staying 0: a
// join that gathers pairs (q3.x and q4.x, whose first join builds left) emits
// them typed, and the retained copies keep string columns typed, so the
// probes and the aggregate above read in place what they read as variants —
// q3.1 29 → 34, q3.2 29 → 34, q3.3 33 → 34, q3.4 22 → 23, q4.1 20 → 26,
// q4.2 34 → 41, q4.3 30 → 33 — and q2.1's aggregate reads p_brand1, gathered
// from the part build, typed (22 → 24).
func TestSSBTypedColumnCountersExact(t *testing.T) {
	want := map[string][2]int64{
		"q1.1": {43, 0}, "q1.2": {46, 0}, "q1.3": {55, 0},
		"q2.1": {24, 0}, "q2.2": {17, 0}, "q2.3": {14, 0},
		"q3.1": {34, 0}, "q3.2": {34, 0}, "q3.3": {34, 0}, "q3.4": {23, 0},
		"q4.1": {26, 0}, "q4.2": {41, 0}, "q4.3": {33, 0},
	}
	for _, par := range []int{1, 4} {
		sess, err := Setup(7, 0.5, engine.WithBatchSize(1024), engine.WithParallelism(par))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range Queries() {
			_, tres, err := RunTranslated(sess, q)
			if err != nil {
				t.Fatal(err)
			}
			_, hres, err := RunHandwritten(sess.Engine(), q)
			if err != nil {
				t.Fatal(err)
			}
			for path, m := range map[string]engine.Metrics{"generated": tres.Metrics, "handwritten": hres.Metrics} {
				if got := [2]int64{m.TypedCols, m.FallbackCols}; got != want[q.ID] {
					t.Errorf("%s %s par=%d: typed/fallback cols = %v, want %v", q.ID, path, par, got, want[q.ID])
				}
			}
		}
	}
}
