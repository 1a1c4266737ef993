package main

import (
	"fmt"
	"sort"
	"time"
)

// metricDecl mirrors one entry of BENCHMARK.json; a test keeps the two equal.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload emits all of
// them (the gate compares each one on each workload), so only metrics that
// mean the same thing on a library call and on an HTTP request are here; the
// workload-specific ones (gen_over_hand, reopen_ms, ...) are per-layer.
//
// The times are at the machine's uncontended speed (machine.go). The bounds
// are what the reference box can resolve after that, not what one would wish:
// the scaled timings of ten runs still spread 2-10% around their median, a
// set of ten has the occasional run 15-25% off, and a tight bound would reject
// the parent commit against itself. 25% is the widest the gate allows.
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_slow_ms", "ms", "lower", 0.25},
	{"rss_p95_mb", "MB", "lower", 0.25},
}

// perLayer lists the traced run's metrics. A workload that does not exercise
// a metric's measuring point emits 0 for it.
var perLayer = []metricDecl{
	// Workload-specific user-visible numbers, ungated.
	{Name: "sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "hand_sweep_ms", Unit: "ms", Better: "lower"},
	{Name: "gen_over_hand", Unit: "ratio", Better: "lower"},
	{Name: "gen_over_hand_max", Unit: "ratio", Better: "lower"},
	{Name: "bytes_scanned_mb", Unit: "MB", Better: "lower"},
	{Name: "ingest_docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "disk_bytes_per_json_byte", Unit: "ratio", Better: "lower"},
	// The real tail: the highest percentile of the pooled raw latencies with at
	// least ten samples beyond it, and which percentile that is.
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_tail_pct", Unit: "%", Better: "higher"},
	// Frontend.
	{Name: "jsoniq.lex_us", Unit: "us", Better: "lower"},
	{Name: "jsoniq.parse_us", Unit: "us", Better: "lower"},
	{Name: "jsoniq.rewrite_us", Unit: "us", Better: "lower"},
	{Name: "jsoniq.ast_nodes", Unit: "count", Better: "lower"},
	{Name: "iterplan.build_us", Unit: "us", Better: "lower"},
	{Name: "iterplan.iterators", Unit: "count", Better: "lower"},
	{Name: "core.translate_us", Unit: "us", Better: "lower"},
	{Name: "snowpark.render_us", Unit: "us", Better: "lower"},
	{Name: "snowpark.sql_bytes", Unit: "count", Better: "lower"},
	{Name: "sqlparse.parse_us", Unit: "us", Better: "lower"},
	{Name: "sqlparse.hand_parse_us", Unit: "us", Better: "lower"},
	// Engine.
	{Name: "engine.compile_us", Unit: "us", Better: "lower"},
	{Name: "engine.hand_compile_us", Unit: "us", Better: "lower"},
	{Name: "engine.exec_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.hand_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "engine.rows_out", Unit: "count", Better: "lower"},
	{Name: "engine.partitions_pruned_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.parallel_breakers", Unit: "count", Better: "higher"},
	{Name: "engine.spills", Unit: "count", Better: "lower"},
	{Name: "engine.typed_cols", Unit: "count", Better: "higher"},
	{Name: "engine.fallback_cols", Unit: "count", Better: "lower"},
	{Name: "engine.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.plan_cache_evictions", Unit: "count", Better: "lower"},
	{Name: "engine.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.result_cache_invalidations", Unit: "count", Better: "lower"},
	{Name: "engine.view_query_ms", Unit: "ms", Better: "lower"},
	// Values and storage.
	{Name: "variant.parse_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "variant.encode_us", Unit: "us", Better: "lower"},
	{Name: "storage.append_us_per_doc", Unit: "us", Better: "lower"},
	{Name: "storage.seal_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.partitions", Unit: "count", Better: "lower"},
	{Name: "storage.disk_bytes", Unit: "count", Better: "lower"},
	{Name: "storage.reopen_open_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.cold_read_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.disk_reads", Unit: "count", Better: "lower"},
	// Server.
	{Name: "server.overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.response_bytes", Unit: "count", Better: "lower"},
	{Name: "server.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.load_ms_per_batch", Unit: "ms", Better: "lower"},
	// The measurement itself.
	{Name: "machine.speed", Unit: "ratio", Better: "higher"},
	{Name: "obsv.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
}

// metricValue is one reported number with the sample count behind it.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// queryRow is the per-query diagnosis line of a library workload.
type queryRow struct {
	ID      string  `json:"id"`
	GenMS   float64 `json:"gen_ms"`
	HandMS  float64 `json:"hand_ms,omitempty"`
	Ratio   float64 `json:"ratio,omitempty"`
	ScanMB  float64 `json:"bytes_scanned_mb,omitempty"`
	Samples int     `json:"samples"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Sizes     map[string]float64 `json:"sizes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"` // first few, for diagnosis
	// MachineSpeed is the machine's speed during the measured window as a
	// share of its uncontended speed (machine.go). The end-to-end times are
	// already multiplied by it and throughput_qps divided; undo that to get
	// the numbers as the clock read them.
	MachineSpeed float64                `json:"machine_speed"`
	Metrics      map[string]metricValue `json:"metrics"`
	Queries      []queryRow             `json:"queries,omitempty"`
	Spans        []span                 `json:"spans,omitempty"`
	// ProgramTraces copies the program's own span tree per query for
	// reference; no metric is derived from it.
	ProgramTraces map[string]any `json:"program_traces,omitempty"`

	mon *monitor // runs from before set-up until the run ends
}

func newResult(cfg config) *runResult {
	return &runResult{
		Workload: cfg.workload, Traced: cfg.trace, Seed: cfg.seed, Seconds: cfg.seconds,
		Sizes: map[string]float64{}, Metrics: map[string]metricValue{},
	}
}

func (r *runResult) set(name string, v float64, samples int) {
	r.Metrics[name] = metricValue{Value: v, Samples: samples}
}

// windowSpeed closes the measured window: it records the machine's speed over
// it and returns that speed, by which the window's end-to-end times are
// multiplied and its rate divided.
func (r *runResult) windowSpeed(from, to time.Time) float64 {
	speed, loops := r.mon.speed(from, to)
	r.MachineSpeed = speed
	r.set("machine.speed", speed, loops)
	return speed
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 5 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// setTail reports the highest percentile of the pooled raw latencies that
// their number supports, and which percentile that is.
func setTail(r *runResult, lat []float64) {
	p := supportedTail(len(lat))
	r.set("latency_tail_ms", percentile(lat, p), len(lat))
	r.set("latency_tail_pct", p, len(lat))
}

// A run sets its workload up more than once where that is cheap, and setup_s
// is the median, each set-up's time at the machine's uncontended speed: a sub-second set-up (adl_compile, serve_ingest)
// swings by a third with whatever else the box does in that instant. A set-up
// is repeated while another of the same length fits in setUpBudget, up to
// maxSetUps times; the multi-second ones (serve_mix) run once, to keep the
// whole set of runs inside the gate's time cap, and so do smoke runs.
const (
	maxSetUps   = 5
	setUpBudget = 4 * time.Second
)

// setUpRepeatedly calls setUp as the rule above says, discards every state but
// the last, and records setup_s.
func setUpRepeatedly[T any](cfg config, r *runResult, setUp func() (T, error), discard func(T)) (T, error) {
	var state T
	var durs []float64
	var spent time.Duration
	for {
		t0 := time.Now()
		s, err := setUp()
		if err != nil {
			return state, err
		}
		d := time.Since(t0)
		speed, _ := r.mon.speed(t0, t0.Add(d))
		durs, spent, state = append(durs, d.Seconds()*speed), spent+d, s
		if cfg.smoke || len(durs) == maxSetUps || spent+d > setUpBudget {
			r.set("setup_s", median(durs), len(durs))
			return state, nil
		}
		discard(s)
	}
}

// seal reduces the run's metrics to the declared set of its mode (end-to-end
// when untraced, per-layer when traced) and stamps their units. Every
// end-to-end metric must have been measured and be non-zero; a per-layer
// metric the workload does not exercise reads 0; a name declared in neither
// list is an error.
func (r *runResult) seal() error {
	keep, drop := endToEnd, perLayer
	if r.Traced {
		keep, drop = perLayer, endToEnd
	}
	out := make(map[string]metricValue, len(keep))
	for _, d := range keep {
		m, ok := r.Metrics[d.Name]
		if !r.Traced && (!ok || m.Value == 0) {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, d.Name)
		}
		m.Unit = d.Unit
		out[d.Name] = m
		delete(r.Metrics, d.Name)
	}
	for _, d := range drop {
		delete(r.Metrics, d.Name)
	}
	if len(r.Metrics) > 0 {
		var extra []string
		for k := range r.Metrics {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return fmt.Errorf("%s: undeclared metrics %v", r.Workload, extra)
	}
	r.Metrics = out
	return nil
}
