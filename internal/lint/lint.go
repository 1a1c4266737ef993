// Package lint is jsonpark's static-analysis suite: a small
// go/analysis-style framework (built on the standard library's go/ast and
// go/types only — the sandbox has no golang.org/x/tools) plus the analyzers
// that machine-check the executor's load-bearing invariants. PR 2's
// vectorized executor bought its speed with conventions that previously
// lived in comments: expression registers and streamed batches are borrowed
// until their producer's next call, every operator acquired from a
// constructor must be Closed on all paths, obsv spans must be ended,
// selection vectors are accessed through the vector.Batch helpers, and no
// mutex may be held across a NextBatch call.
// cmd/jsqlint runs every analyzer over the module and is wired into
// `make lint` and CI, turning those conventions into a compile-time gate.
//
// A finding can be suppressed — when the aliasing or retention is
// intentional and documented — with a directive comment on the reported
// line or the line above it:
//
//	kept = append(kept, b) //jsqlint:ignore kernelalias reason for the retention
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Pass carries one type-checked package through one analyzer run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant checker.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// All returns the full jsqlint suite in reporting order: the seven
// syntactic analyzers from PRs 4 and 7, then the five dataflow-aware
// analyzers guarding the governance and typed-storage invariants, then the
// import gate that confines package unsafe to the variant layout.
func All() []*Analyzer {
	return []*Analyzer{
		KernelAlias,
		ExecClose,
		SpanEnd,
		SelBounds,
		LockedBatch,
		ErrSink,
		LogKeys,
		CtxPoll,
		MemCharge,
		TypedAlias,
		SpillClose,
		NullBits,
		UnsafeImport,
	}
}

// ByName resolves a comma-separated analyzer list ("" means all).
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// ignoreDirective is the suppression marker: it must be followed by the
// analyzer name and should carry a reason. ignoreFileDirective suppresses
// one analyzer for the whole file (for files that are wall-to-wall
// sanctioned exceptions, e.g. a codec that legitimately owns its bitmap
// words); it too requires the analyzer name and a reason.
const (
	ignoreDirective     = "//jsqlint:ignore"
	ignoreFileDirective = "//jsqlint:ignore-file"
)

// suppressionSet records the per-line and per-file ignore directives of
// one package's files.
type suppressionSet struct {
	byLine map[string]map[int]map[string]bool // filename -> line -> analyzers
	byFile map[string]map[string]bool         // filename -> analyzers
}

func (s *suppressionSet) suppressed(d Diagnostic) bool {
	if s.byFile[d.Pos.Filename][d.Analyzer] {
		return true
	}
	return s.byLine[d.Pos.Filename][d.Pos.Line][d.Analyzer]
}

// suppressions collects the directives: a line directive suppresses
// findings on its own line and on the line below it (so it can sit above a
// long statement); a file directive suppresses the named analyzer
// everywhere in its file.
func suppressions(fset *token.FileSet, files []*ast.File) *suppressionSet {
	sup := &suppressionSet{
		byLine: make(map[string]map[int]map[string]bool),
		byFile: make(map[string]map[string]bool),
	}
	addLine := func(pos token.Position, name string) {
		byLine := sup.byLine[pos.Filename]
		if byLine == nil {
			byLine = make(map[int]map[string]bool)
			sup.byLine[pos.Filename] = byLine
		}
		for _, line := range []int{pos.Line, pos.Line + 1} {
			if byLine[line] == nil {
				byLine[line] = make(map[string]bool)
			}
			byLine[line][name] = true
		}
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// ignore-file first: ignoreDirective is its prefix.
				if strings.HasPrefix(c.Text, ignoreFileDirective) {
					fields := strings.Fields(strings.TrimPrefix(c.Text, ignoreFileDirective))
					if len(fields) == 0 {
						continue
					}
					fn := fset.Position(c.Pos()).Filename
					if sup.byFile[fn] == nil {
						sup.byFile[fn] = make(map[string]bool)
					}
					sup.byFile[fn][fields[0]] = true
					continue
				}
				if !strings.HasPrefix(c.Text, ignoreDirective) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(c.Text, ignoreDirective))
				if len(fields) == 0 {
					continue
				}
				addLine(fset.Position(c.Pos()), fields[0])
			}
		}
	}
	return sup
}

// AnalyzerStat is one analyzer's aggregate cost and yield over a run.
type AnalyzerStat struct {
	Name     string
	Findings int
	Wall     time.Duration
}

// Run applies the analyzers to every loaded package and returns the
// surviving (non-suppressed) diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunWithStats(pkgs, analyzers)
	return diags, err
}

// RunWithStats is Run plus per-analyzer wall time and finding counts, in
// the analyzers' given order.
func RunWithStats(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, []AnalyzerStat, error) {
	var diags []Diagnostic
	stats := make([]AnalyzerStat, len(analyzers))
	for i, a := range analyzers {
		stats[i].Name = a.Name
	}
	for _, pkg := range pkgs {
		sup := suppressions(pkg.Fset, pkg.Files)
		for i, a := range analyzers {
			count := 0
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				report: func(d Diagnostic) {
					if sup.suppressed(d) {
						return
					}
					count++
					diags = append(diags, d)
				},
			}
			start := time.Now()
			err := a.Run(pass)
			stats[i].Wall += time.Since(start)
			stats[i].Findings += count
			if err != nil {
				return nil, nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, stats, nil
}
