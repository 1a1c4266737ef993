package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// asHarness makes the test binary behave as the harness: runChild re-executes
// os.Executable(), which under `go test` is this binary.
const asHarness = "JSONPARK_BENCHMARK_TEST_AS_HARNESS"

func TestMain(m *testing.M) {
	if os.Getenv(asHarness) == "1" {
		main()
		return
	}
	os.Setenv(asHarness, "1") // for the children only: this process is past the check
	os.Exit(m.Run())
}

// A child that dies before writing its result must end the suite; in
// particular the result of the child before it must not be read in its place.
func TestSuiteStopsWhenAChildFails(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := config{seed: 5, seconds: 0.1, smoke: true, jsqd: filepath.Join(dir, "no-such-jsqd"), scratch: dir}
	out := filepath.Join(dir, "results.json")
	file, err := runSuite(cfg, 1, out, "")
	if err == nil || !strings.Contains(err.Error(), "serve_mix") {
		t.Fatalf("runSuite with no jsqd: err = %v, want serve_mix's failure", err)
	}
	if file != nil {
		t.Errorf("a results file was assembled: %+v", file.Summary)
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("results.json was written")
	}

	// The same through runChild alone, next to a good run's file.
	cfg.workload = "adl_compile"
	if _, err := runChild(cfg, dir); err != nil {
		t.Fatalf("a good child: %v", err)
	}
	cfg.workload = "serve_ingest"
	if r, err := runChild(cfg, dir); err == nil {
		t.Errorf("a child that cannot start jsqd returned %s's result", r.Workload)
	}
}

func TestSupportedTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{8, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	if got := quartileSpread([]float64{3, 1, 2}); got != 1 {
		t.Errorf("quartileSpread of three = %v, want 1", got)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("one sample has spread %v, want 0", got)
	}
}

// The machine's speed over an interval is one over the mean slowdown of the
// loops timed in it, each CPU against its own fastest loop, a descheduled loop
// counting as monitorClip.
func TestMachineSpeed(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	m := &monitor{loops: [][]loopTime{
		{{at(0), 200}, {at(20), 400}, {at(40), 200}, {at(60), 10000}}, // slowdowns 1, 2, 1, clipped to 2.5
		{{at(0), 300}, {at(20), 300}, {at(40), 600}},                  // 1, 1, 2
	}}
	for _, c := range []struct {
		from, to int
		want     float64
		loops    int
	}{
		{0, 60, 7 / 10.5, 7},
		{10, 50, 4 / 6.0, 4},
		{45, 55, 7 / 10.5, 7}, // holds no loop: judged by the whole run
	} {
		got, n := m.speed(at(c.from), at(c.to))
		if math.Abs(got-c.want) > 1e-12 || n != c.loops {
			t.Errorf("speed over %d..%d ms = %v from %d loops, want %v from %d", c.from, c.to, got, n, c.want, c.loops)
		}
	}
	if got, n := (&monitor{loops: make([][]loopTime, 2)}).speed(at(0), at(60)); got != 1 || n != 0 {
		t.Errorf("speed without loops = %v from %d, want 1 from 0", got, n)
	}

	live := startMonitor()
	time.Sleep(5 * monitorPeriod)
	live.stop()
	if got, n := live.speed(t0, time.Now()); n < len(live.loops) || got <= 0 || got > 1 {
		t.Errorf("a live monitor saw speed %v from %d loops", got, n)
	}
}

func TestSelfTimeSubtractsCoveredInterval(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50},  // overlaps 2: 30..50 is new
		{ID: 4, Parent: 1, Start: 90, End: 120}, // runs past the parent: 90..100 counts
		{ID: 5, Parent: 2, Start: 10, End: 15, Estimated: true},
	}
	got := selfTimes(spans)
	want := map[int]time.Duration{1: 50, 2: 15, 3: 30, 4: 30, 5: 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestRecorderEstimateStartsWithParent(t *testing.T) {
	rec := newRecorder()
	id := rec.begin(span{Name: "engine.prepare", Query: "q1", Path: "gen", Pass: 2})
	rec.end(id)
	rec.estimate(id, "sqlparse.parse", 7)
	child := rec.spans[1]
	if child.Parent != id || child.Start != rec.spans[0].Start || child.End-child.Start != 7 || !child.Estimated || child.Query != "q1" || child.Pass != 2 {
		t.Errorf("estimated child = %+v", child)
	}
	var off *recorder
	if off.begin(span{}) != 0 {
		t.Error("a nil recorder must record nothing")
	}
	off.end(0)
	off.estimate(0, "x", 1)
}

func TestSamplerIsDeterministicPerSeed(t *testing.T) {
	mix := &requestMix{base: baseRequests(), cold: make([]mixRequest, 64)}
	if len(mix.base) != 21 {
		t.Fatalf("%d base texts, want 21", len(mix.base))
	}
	draw := func(seed int64, client int) []*mixRequest {
		s := mix.sampler(seed, client)
		out := make([]*mixRequest, 5000)
		for i := range out {
			out[i] = s.next()
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed and client drew different requests")
	}
	if reflect.DeepEqual(a, draw(7, 1)) || reflect.DeepEqual(a, draw(8, 0)) {
		t.Error("another client or seed drew the same requests")
	}
	hot, first := 0, 0
	for _, q := range a {
		for i := range mix.base {
			if q == &mix.base[i] {
				hot++
				if i == 0 {
					first++
				}
			}
		}
	}
	if share := float64(hot) / float64(len(a)); math.Abs(share-hotShare) > 0.02 {
		t.Errorf("hot share %v, want about %v", share, hotShare)
	}
	// Zipf(1.1) over 21 ranks gives rank 1 about a third of the hot draws.
	if share := float64(first) / float64(hot); share < 0.28 || share > 0.40 {
		t.Errorf("rank-1 share of hot draws %v, want about 0.34", share)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDecl{"latency_p50_ms", "ms", "lower", 0.10}
	higher := metricDecl{"throughput_qps", "1/s", "higher", 0.10}
	for _, c := range []struct {
		d            metricDecl
		a, b, spread float64
		want         string
	}{
		{lower, 100, 105, 0.02, "same"},
		{lower, 100, 111, 0.02, "worse"},
		{lower, 100, 90, 0.02, "better"},
		{lower, 100, 99, 0.02, "same"},        // an improvement inside the spread is not one
		{lower, 100, 111, 0.12, "unresolved"}, // beyond the bound, inside the spread
		{lower, 100, 104, 0.12, "unresolved"}, // no change seen, but the spread could hide one
		{lower, 100, 150, 0.12, "worse"},      // a wide spread does not excuse a change beyond it
		{lower, 100, 80, 0.12, "better"},
		{higher, 100, 89, 0.02, "worse"},
		{higher, 100, 120, 0.02, "better"},
		{higher, 100, 95, 0.02, "same"},
	} {
		if got := verdict(c.d, c.a, c.b, c.spread); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, spread %v) = %s, want %s", c.d.Name, c.a, c.b, c.spread, got, c.want)
		}
	}

	file := func(p50 float64, failRatio float64) *resultsFile {
		return &resultsFile{
			Workloads: []workloadResults{{Name: "serve_mix", EndToEnd: []metricSummary{{metricDecl: lower, Median: p50, Spread: 0.01}}}},
			Summary:   summary{FailRatio: failRatio},
		}
	}
	if rows, rejected := compareResults(file(100, 0), file(104, 0)); rejected || len(rows) != 1 || rows[0].Verdict != "same" {
		t.Errorf("within the bound: rows %+v rejected %v", rows, rejected)
	}
	if _, rejected := compareResults(file(100, 0), file(120, 0)); !rejected {
		t.Error("a worse metric must reject")
	}
	if _, rejected := compareResults(file(100, 0), file(100, 0.01)); !rejected {
		t.Error("a higher fail_ratio must reject")
	}
}

// benchmarkSpec is BENCHMARK.json as the regression gate reads it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	spec := readSpec(t)
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", spec.PerLayer, perLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads: json %v, code %v", names, workloadNames())
	}
}

// TestSmoke runs all five workloads at toy sizes, untraced and traced,
// against a jsqd built from this checkout, and checks that each run answers
// everything correctly and emits exactly the metrics BENCHMARK.json declares
// for its mode, with the declared units.
func TestSmoke(t *testing.T) {
	t.Parallel()
	spec := readSpec(t)
	dir := t.TempDir()
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "jsonpark/cmd/jsqd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building jsqd: %v\n%s", err, out)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w.Name, seed: 5, seconds: 0.2, trace: traced, smoke: true,
				jsqd: filepath.Join(dir, "jsqd"), scratch: dir}
			r, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.Name, traced, r.Failed, r.Attempted, r.Failures)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := r.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.Name, traced, d.Name, m, d.Unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, d.Name, m.Value)
				}
			}
			if traced && len(r.Spans) == 0 {
				t.Errorf("%s: the traced run recorded no spans", w.Name)
			}
		}
	}
}
