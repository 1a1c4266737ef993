// Command benchmark is jsonpark's one benchmark: five workloads, each run in
// its own process, reporting the end-to-end metrics (tracing off) or the
// per-layer metrics (a separate traced run) declared in BENCHMARK.json.
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// defaultSeed differs on purpose from the seeds baked into cmd/adlbench (42)
// and cmd/ssbbench (7).
const defaultSeed = 20240611

// config is one run's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	jsqd     string // path of the built cmd/jsqd, for the serve workloads
	scratch  string // directory for data dirs and logs; everything in it is disposable
}

// workloads in report order, each with the function that runs it.
var workloads = []struct {
	name string
	run  func(config, *runResult) error
}{
	{"adl_exec", runLibrary},
	{"adl_compile", runLibrary},
	{"ssb_exec", runLibrary},
	{"serve_mix", runServeMix},
	{"serve_ingest", runServeIngest},
}

// runWorkload runs one workload in this process and seals its metric set.
func runWorkload(cfg config) (*runResult, error) {
	for _, w := range workloads {
		if w.name != cfg.workload {
			continue
		}
		r := newResult(cfg)
		r.mon = startMonitor()
		defer r.mon.stop()
		if err := w.run(cfg, r); err != nil {
			return nil, err
		}
		if err := r.seal(); err != nil {
			return nil, err
		}
		return r, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// printResult lists every metric by name and unit, then the one-line JSON
// object the regression gate reads (it must stay the last line of stdout).
func printResult(r *runResult) error {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%g traced=%v sizes=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced, r.Sizes)
	if !r.Traced {
		fmt.Printf("# machine speed in the window %.3f of uncontended: times are multiplied by it, throughput_qps divided\n", r.MachineSpeed)
	}
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Printf("%-36s %14.4f %-6s n=%d\n", k, m.Value, m.Unit, m.Samples)
	}
	for _, q := range r.Queries {
		fmt.Printf("  %-5s gen %10.3f ms", q.ID, q.GenMS)
		if r.Traced {
			fmt.Printf("  hand %10.3f ms  ratio %6.3f  scanned %8.3f MB", q.HandMS, q.Ratio, q.ScanMB)
		}
		fmt.Printf("  n=%d\n", q.Samples)
	}
	for _, f := range r.Failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]wire, len(r.Metrics))
	for k, m := range r.Metrics {
		metrics[k] = wire{m.Value, m.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.Failed == 0, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "all", "one of "+strings.Join(workloadNames(), ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "drives data generation and the request mix")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured window of one run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "toy sizes (tests only; numbers are meaningless)")
	flag.StringVar(&cfg.jsqd, "jsqd", "", "path of the built cmd/jsqd binary")
	flag.StringVar(&cfg.scratch, "scratch", "", "directory for data dirs and logs")
	out := flag.String("out", "", "write the full results of this run (or of the whole set, with -workload all) to FILE")
	traceOut := flag.String("trace-out", "", "with -workload all: write the traced runs' spans to FILE")
	runs := flag.Int("runs", 3, "with -workload all: untraced runs per workload, whose spread is recorded")
	compare := flag.Bool("compare", false, "compare two results files: -compare a.json b.json")
	repeatCheck := flag.Bool("repeat-check", false, "run the whole set twice and compare the two")
	flag.Parse()
	cfg.trace = trace != 0

	err := func() error {
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("usage: -compare a.json b.json")
			}
			return compareFiles(flag.Arg(0), flag.Arg(1))
		case *repeatCheck:
			return repeatCheckSuite(cfg, *runs, *out, *traceOut)
		case cfg.workload == "all":
			_, err := runSuite(cfg, *runs, *out, *traceOut)
			return err
		}
		r, err := runWorkload(cfg)
		if err != nil {
			return err
		}
		if *out != "" {
			if err := writeJSON(*out, r); err != nil {
				return err
			}
		}
		if err := printResult(r); err != nil {
			return err
		}
		if r.Failed > 0 {
			return fmt.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}
