package jsoniq_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"jsonpark/internal/adl"
	"jsonpark/internal/jsoniq"
	"jsonpark/internal/ssb"
)

// FuzzJSONiqParse: on any input the lexer, parser and inliner return
// without panicking or hanging, and for any text that parses Rewrite leaves
// its input as it was (by Format) and is idempotent, and RenameShadowed
// leaves Rewrite's output as it was and returns a tree where no binding
// shadows another that differs from its input only in variable names. No
// expression node occurs twice in the parsed, rewritten or renamed tree (an
// inlined argument is copied at each use), so a back-end may key state by
// node identity. The seeds are ADL
// q1–q8, SSB's JSONiq texts and every query written out in the core and
// jsoniq tests, the `declare function` modules included.
func FuzzJSONiqParse(f *testing.F) {
	for _, q := range adl.Queries() {
		f.Add(q.JSONiq)
	}
	for _, q := range ssb.Queries() {
		f.Add(q.JSONiq)
	}
	for _, src := range testQueries(f, "../core/*_test.go", "*_test.go") {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		e, err := jsoniq.Parse(src)
		if err != nil {
			return
		}
		before := jsoniq.Format(e)
		once := jsoniq.Rewrite(e)
		if after := jsoniq.Format(e); after != before {
			t.Fatalf("Rewrite changed its input:\n%s\nwas\n%s", after, before)
		}
		text := jsoniq.Format(once)
		if twice := jsoniq.Format(jsoniq.Rewrite(once)); twice != text {
			t.Fatalf("Rewrite is not idempotent on %q:\n%s\nthen\n%s", src, text, twice)
		}
		renamed := jsoniq.RenameShadowed(once)
		if after := jsoniq.Format(once); after != text {
			t.Fatalf("RenameShadowed changed its input:\n%s\nwas\n%s", after, text)
		}
		if v := jsoniq.Shadowed(renamed); v != "" {
			t.Fatalf("$%s still shadows after RenameShadowed on %q:\n%s", v, src, jsoniq.Format(renamed))
		}
		for _, tree := range []jsoniq.Expr{e, once, renamed} {
			if n := jsoniq.Shared(tree); n != nil {
				t.Fatalf("%s occurs twice in the tree of %q:\n%s", jsoniq.Format(n), src, jsoniq.Format(tree))
			}
		}
		anon := func(string) string { return "v" }
		if a, b := jsoniq.Format(jsoniq.MapNames(renamed, anon)), jsoniq.Format(jsoniq.MapNames(once, anon)); a != b {
			t.Fatalf("RenameShadowed changed more than names on %q:\n%s\nwas\n%s", src, a, b)
		}
	})
}

// testQueries returns the raw string literals of the Go files matching the
// patterns that parse as JSONiq queries.
func testQueries(tb testing.TB, patterns ...string) []string {
	tb.Helper()
	var out []string
	for _, pattern := range patterns {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			tb.Fatalf("no files match %s (%v)", pattern, err)
		}
		for _, name := range files {
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.SkipObjectResolution)
			if err != nil {
				tb.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
					return true
				}
				if src, err := strconv.Unquote(lit.Value); err == nil {
					if _, err := jsoniq.Parse(src); err == nil {
						out = append(out, src)
					}
				}
				return true
			})
		}
	}
	return out
}
