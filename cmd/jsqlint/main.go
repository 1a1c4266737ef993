// Command jsqlint runs jsonpark's static-analysis suite (internal/lint)
// over the module. It is the multichecker behind `make lint` and the CI
// lint gate: every analyzer checks one executor invariant that the type
// system cannot express — kernel output aliasing, operator Close lifecycle,
// span lifecycle, selection-vector access discipline, lock scope across
// NextBatch, discarded load-bearing errors, cancellation polling in
// batch-absorbing loops, memory-governance charging, TypedCol view escapes,
// spill-run lifecycles, raw null-bitmap access, and imports of unsafe.
//
// Usage:
//
//	jsqlint [-checks kernelalias,execclose,...] [-format text|json|sarif] [-stats] [packages]
//
// With no packages, ./... is linted. -format json emits one object per
// finding; -format sarif emits a SARIF 2.1.0 log for code-scanning upload.
// -stats prints per-analyzer wall time and finding counts to stderr. Exit
// status is 1 when any finding survives suppression, 2 on usage or load
// errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"jsonpark/internal/lint"
)

func main() {
	fs := flag.NewFlagSet("jsqlint", flag.ContinueOnError)
	checks := fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	stats := fs.Bool("stats", false, "print per-analyzer wall time and finding counts to stderr")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: jsqlint [-checks a,b,...] [-format text|json|sarif] [-stats] [-list] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *format != "text" && *format != "json" && *format != "sarif" {
		fmt.Fprintf(os.Stderr, "jsqlint: unknown format %q (want text, json, or sarif)\n", *format)
		os.Exit(2)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.LoadPackages(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	diags, perAnalyzer, err := lint.RunWithStats(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	switch *format {
	case "text":
		for _, d := range diags {
			fmt.Println(d)
		}
	case "json":
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case "sarif":
		if err := writeSARIF(os.Stdout, analyzers, diags); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	if *stats {
		for _, s := range perAnalyzer {
			fmt.Fprintf(os.Stderr, "jsqlint: %-12s %4d finding(s) %12s\n", s.Name, s.Findings, s.Wall.Round(time.Millisecond/10))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "jsqlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// relPath rewrites an absolute diagnostic path relative to the working
// directory with forward slashes — the shape code-scanning uploads expect.
func relPath(fn string) string {
	wd, err := os.Getwd()
	if err != nil {
		return fn
	}
	rel, err := filepath.Rel(wd, fn)
	if err != nil || strings.HasPrefix(rel, "..") {
		return fn
	}
	return filepath.ToSlash(rel)
}

// jsonFinding is one -format=json record.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(w *os.File, diags []lint.Diagnostic) error {
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonFinding{
			File:     relPath(d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Minimal SARIF 2.1.0 document: one run, one rule per analyzer, one result
// per finding.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func writeSARIF(w *os.File, analyzers []*lint.Analyzer, diags []lint.Diagnostic) error {
	rules := make([]sarifRule, 0, len(analyzers))
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifText{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	for _, d := range diags {
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "warning",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: relPath(d.Pos.Filename)},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{{Tool: sarifTool{Driver: sarifDriver{Name: "jsqlint", Rules: rules}}, Results: results}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}
