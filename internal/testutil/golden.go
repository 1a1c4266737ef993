package testutil

import (
	"os"
	"strings"
	"testing"
)

// Golden compares got with the contents of the file at path and fails at
// the first line that differs. With update set it rewrites the file from got
// instead, so a test regenerates its golden under its own -update flag.
func Golden(t testing.TB, path, got string, update bool) {
	t.Helper()
	if update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s: golden mismatch at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: golden mismatch: %d lines, want %d", path, len(gl), len(wl))
}
