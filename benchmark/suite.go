package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// resultsFile is the schema of results.json: one complete set of runs.
type resultsFile struct {
	Schema    string            `json:"schema"`
	Env       environment       `json:"env"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Runs      int               `json:"runs"`
	Workloads []workloadResults `json:"workloads"`
	Summary   summary           `json:"summary"`
}

const resultsSchema = "jsonpark-benchmark/1"

// workloadResults holds a workload's untraced runs (end-to-end metrics with
// their run-to-run spread) and its one traced run (per-layer metrics).
type workloadResults struct {
	Name      string             `json:"name"`
	Sizes     map[string]float64 `json:"sizes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  []metricSummary    `json:"end_to_end"`
	// MachineSpeed is each untraced run's machine speed in its window, by
	// which EndToEnd's timings are already scaled (machine.go).
	MachineSpeed []float64              `json:"machine_speed"`
	PerLayer     map[string]metricValue `json:"per_layer"`
	Queries      []queryRow             `json:"queries,omitempty"` // from the traced run
}

// metricSummary is one end-to-end metric over the set's untraced runs, each
// run on its own seed, as the regression gate runs them.
type metricSummary struct {
	metricDecl
	Values  []float64 `json:"values"`
	Samples []int     `json:"samples"`
	Median  float64   `json:"median"`
	Spread  float64   `json:"spread"` // (Q3-Q1)/median over Values
}

// summary closes the file. Claim is always null: this program measures a
// commit; a gain is claimed by comparing two files, never by one.
type summary struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailRatio float64 `json:"fail_ratio"`
	Claim     *string `json:"claim"`
}

// traceFile is the schema of trace.json.
type traceFile struct {
	Schema    string                   `json:"schema"`
	Env       environment              `json:"env"`
	Seed      int64                    `json:"seed"`
	Workloads map[string]workloadTrace `json:"workloads"`
}

type workloadTrace struct {
	Spans         []span         `json:"spans"`
	ProgramTraces map[string]any `json:"program_traces,omitempty"`
}

// runChild re-executes this binary for one run of one workload, so heap
// state and peak RSS never leak from one workload into the next. The child's
// listing goes to our stdout; its full result comes back through a file of
// this run's own, and must say it is this run's. A child that exits non-zero
// may still have a result (its failed operations are in it, and end up in the
// summary); one that wrote none, or somebody else's, ends the suite.
func runChild(cfg config, dir string) (*runResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	seed := strconv.FormatInt(cfg.seed, 10)
	out := filepath.Join(dir, cfg.workload+"-"+seed+"-"+trace+".json")
	args := []string{
		"-workload", cfg.workload, "-seed", seed,
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace,
		"-jsqd", cfg.jsqd, "-scratch", cfg.scratch, "-out", out,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	b, err := os.ReadFile(out)
	if err != nil {
		return nil, fmt.Errorf("%s seed %s trace %s: the run wrote no result (%v): %w", cfg.workload, seed, trace, runErr, err)
	}
	var r runResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", out, err)
	}
	if r.Workload != cfg.workload || r.Seed != cfg.seed || r.Traced != cfg.trace {
		return nil, fmt.Errorf("%s holds the run %s seed %d traced %v", out, r.Workload, r.Seed, r.Traced)
	}
	if runErr != nil && r.Failed == 0 {
		return nil, fmt.Errorf("%s seed %s trace %s: %v, though its result counts no failed operation", cfg.workload, seed, trace, runErr)
	}
	return &r, nil
}

// runSuite runs every workload: `runs` untraced runs on consecutive seeds,
// then one traced run, and writes results.json and trace.json when asked.
func runSuite(cfg config, runs int, outPath, tracePath string) (*resultsFile, error) {
	dir, err := os.MkdirTemp(cfg.scratch, "suite-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	env := readEnvironment()
	file := &resultsFile{Schema: resultsSchema, Env: env, Seed: cfg.seed, Seconds: cfg.seconds, Runs: runs}
	traces := &traceFile{Schema: resultsSchema, Env: env, Seed: cfg.seed, Workloads: map[string]workloadTrace{}}
	for _, w := range workloads {
		wr := workloadResults{Name: w.name}
		sums := make([]metricSummary, len(endToEnd))
		for i, d := range endToEnd {
			sums[i].metricDecl = d
		}
		child := cfg
		child.workload = w.name
		for i := 0; i <= runs; i++ {
			child.seed, child.trace = cfg.seed+int64(i), false
			if i == runs {
				child.seed, child.trace = cfg.seed, true
			}
			r, err := runChild(child, dir)
			if err != nil {
				return nil, err
			}
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			wr.Failures = append(wr.Failures, r.Failures...)
			if child.trace {
				wr.PerLayer, wr.Queries, wr.Sizes = r.Metrics, r.Queries, r.Sizes
				traces.Workloads[w.name] = workloadTrace{r.Spans, r.ProgramTraces}
				continue
			}
			wr.MachineSpeed = append(wr.MachineSpeed, r.MachineSpeed)
			for j := range sums {
				m := r.Metrics[sums[j].Name]
				sums[j].Values = append(sums[j].Values, m.Value)
				sums[j].Samples = append(sums[j].Samples, m.Samples)
			}
		}
		for j := range sums {
			sums[j].Median, sums[j].Spread = median(sums[j].Values), quartileSpread(sums[j].Values)
		}
		wr.EndToEnd = sums
		file.Workloads = append(file.Workloads, wr)
		file.Summary.Attempted += wr.Attempted
		file.Summary.Failed += wr.Failed
	}
	file.Summary.Correct = file.Summary.Failed == 0
	file.Summary.FailRatio = float64(file.Summary.Failed) / float64(file.Summary.Attempted)
	if outPath != "" {
		if err := writeJSON(outPath, file); err != nil {
			return nil, err
		}
	}
	if tracePath != "" {
		if err := writeJSON(tracePath, traces); err != nil {
			return nil, err
		}
	}
	if !file.Summary.Correct {
		return file, fmt.Errorf("%d of %d operations failed", file.Summary.Failed, file.Summary.Attempted)
	}
	return file, nil
}

// compareRow is one (workload, end-to-end metric) line of a comparison.
type compareRow struct {
	Workload, Metric, Verdict string
	A, B, Spread, Bound       float64
}

// verdict judges b against a. change is the relative worsening (positive =
// worse, whichever way the metric points). A change counts, either way, only
// when it exceeds the run-to-run spread; a spread wider than the bound cannot
// show that a regression of the size the bound forbids is absent.
func verdict(d metricDecl, a, b, spread float64) string {
	change := (b - a) / a
	if d.Better == "higher" {
		change = -change
	}
	switch {
	case change > max(d.Bound, spread):
		return "worse"
	case -change > spread:
		return "better"
	case spread > d.Bound:
		return "unresolved"
	}
	return "same"
}

// compareResults judges every end-to-end metric of every workload in both
// files, and reports whether b may not replace a: some metric is worse, or
// more operations fail.
func compareResults(a, b *resultsFile) (rows []compareRow, rejected bool) {
	byName := map[string]workloadResults{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for i, ma := range wa.EndToEnd {
			if i >= len(wb.EndToEnd) || wb.EndToEnd[i].Name != ma.Name {
				continue
			}
			mb := wb.EndToEnd[i]
			spread := max(ma.Spread, mb.Spread)
			v := verdict(ma.metricDecl, ma.Median, mb.Median, spread)
			rows = append(rows, compareRow{wa.Name, ma.Name, v, ma.Median, mb.Median, spread, ma.Bound})
			rejected = rejected || v == "worse"
		}
	}
	return rows, rejected || b.Summary.FailRatio > a.Summary.FailRatio
}

// report compares b with a, prints the table and says whether b is rejected.
func report(a, b *resultsFile) (rejected bool) {
	rows, rejected := compareResults(a, b)
	fmt.Printf("%-13s %-16s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "b/a", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-13s %-16s %12.4f %12.4f %8.4f %7.4f %7.4f  %s\n", r.Workload, r.Metric, r.A, r.B, r.B/r.A, r.Spread, r.Bound, r.Verdict)
	}
	fmt.Printf("fail_ratio: a %g, b %g\n", a.Summary.FailRatio, b.Summary.FailRatio)
	return rejected
}

func readResults(path string) (*resultsFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != resultsSchema {
		return nil, fmt.Errorf("%s: schema %q is not %q (the BENCH_pr*.json files are historical and not comparable)", path, f.Schema, resultsSchema)
	}
	return &f, nil
}

func compareFiles(pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	if report(a, b) {
		return fmt.Errorf("%s is worse than %s", pathB, pathA)
	}
	return nil
}

// repeatCheckSuite runs the whole set twice on the same code and holds the
// second to the first by the rule -compare applies to two commits.
func repeatCheckSuite(cfg config, runs int, outPath, tracePath string) error {
	first, err := runSuite(cfg, runs, outPath, tracePath)
	if err != nil {
		return err
	}
	second := outPath
	if second != "" {
		second += ".repeat"
	}
	again, err := runSuite(cfg, runs, second, "")
	if err != nil {
		return err
	}
	if report(first, again) {
		return fmt.Errorf("two sets of runs of the same code disagree beyond the bounds")
	}
	return nil
}
