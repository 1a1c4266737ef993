package adl

import (
	"testing"

	"jsonpark/internal/engine"
	"jsonpark/internal/hepdata"
	"jsonpark/internal/snowpark"
)

// TestADLStorageParity runs every ADL query across the storage dimension:
// variant-only chunks (the v1 layout, the oracle), typed shredded chunks
// (typed kernels live), and typed chunks persisted to disk and reloaded
// into a fresh engine (header zone maps + cold data loads). All three must
// render byte-identical rows for both the translated and handwritten
// pipelines.
func TestADLStorageParity(t *testing.T) {
	mkSession := func(opts ...engine.Option) *snowpark.Session {
		sess, _, err := Setup(42, parityEvents, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return sess
	}
	reload := func() *snowpark.Session {
		dir := t.TempDir()
		eng := engine.New(engine.WithDataDir(dir), engine.WithParallelism(1))
		if _, err := hepdata.Load(eng, "adl", 42, parityEvents); err != nil {
			t.Fatal(err)
		}
		if err := eng.Catalog().Flush(); err != nil {
			t.Fatal(err)
		}
		// A fresh engine over the same directory: partition headers load at
		// catalog access, data sections stream in cold during the first scan.
		return snowpark.NewSession(engine.New(engine.WithDataDir(dir), engine.WithParallelism(1)))
	}

	cells := []struct {
		name string
		sess *snowpark.Session
	}{
		{"variant-only", mkSession(engine.WithTypedColumns(false), engine.WithParallelism(1))},
		{"typed", mkSession(engine.WithParallelism(1))},
		{"typed-par2", mkSession(engine.WithParallelism(2))},
		{"typed-par4", mkSession(engine.WithParallelism(4))},
		{"typed-persist-reload", reload()},
	}

	type ref struct{ translated, handwritten string }
	var want map[string]ref
	for _, cell := range cells {
		got := make(map[string]ref)
		for _, q := range Queries() {
			_, tres, err := RunTranslated(cell.sess, q, nil)
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
