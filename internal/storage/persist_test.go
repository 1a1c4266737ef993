package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"jsonpark/internal/variant"
)

func persistRows(t *testing.T, dir string, n int) {
	t.Helper()
	c := NewCatalog(dir, true)
	tab, err := c.CreateTable("ev", []string{"id", "tag", "meta"})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetTargetPartitionBytes(512)
	for i := 0; i < n; i++ {
		row := []variant.Value{
			variant.Int(int64(i)),
			variant.String(fmt.Sprintf("tag%d", i%3)),
			variant.ObjectFromPairs("pt", variant.Float(float64(i)*1.5), "q", variant.Int(int64(i%5))),
		}
		if err := tab.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	dir := t.TempDir()
	persistRows(t, dir, 100)

	// A fresh catalog (a "restarted process") rediscovers the table.
	c := NewCatalog(dir, true)
	tab, err := c.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.NumRows(); got != 100 {
		t.Fatalf("NumRows = %d, want 100", got)
	}
	parts := tab.Partitions()
	if len(parts) < 2 {
		t.Fatalf("want multiple partitions, got %d", len(parts))
	}

	// Zone maps work straight from headers, before any data load.
	st := parts[0].Column(0).PathStat("")
	if st == nil || st.NonNull == 0 {
		t.Fatal("header did not carry zone maps")
	}
	pred := PrunePredicate{Column: "id", Op: PruneGt, Value: variant.Int(1_000_000)}
	for _, p := range parts {
		if p.MayMatch(0, pred) {
			t.Fatal("zone map from header failed to prune")
		}
	}

	// Cold load streams the data back bit-exactly.
	rows := 0
	sawDict := false
	for pi, p := range parts {
		read, err := p.EnsureLoaded()
		if err != nil {
			t.Fatal(err)
		}
		if !read {
			t.Fatalf("partition %d: first EnsureLoaded did not read", pi)
		}
		if read2, _ := p.EnsureLoaded(); read2 {
			t.Fatalf("partition %d: second EnsureLoaded read again", pi)
		}
		ids := p.Column(0).Values()
		tags := p.Column(1).Values()
		metas := p.Column(2).Values()
		for i := range ids {
			want := variant.ObjectFromPairs(
				"pt", variant.Float(float64(rows)*1.5), "q", variant.Int(int64(rows%5)))
			if ids[i].AsInt() != int64(rows) ||
				tags[i].AsString() != fmt.Sprintf("tag%d", rows%3) ||
				!variant.BinaryEqual(metas[i], want) {
				t.Fatalf("row %d mismatch: id=%s tag=%s meta=%s", rows, ids[i].JSON(), tags[i].JSON(), metas[i].JSON())
			}
			rows++
		}
		// The typed encodings survive the round trip.
		if p.Column(0).Typed() == nil {
			t.Error("id column lost its typed encoding on disk")
		}
		if tc := p.Column(1).Typed(); tc == nil {
			t.Error("tag column lost its typed encoding on disk")
		} else if tc.Codes() != nil {
			sawDict = true
		}
		if p.Column(2).Typed() != nil {
			t.Error("object column must stay variant")
		}
	}
	if rows != 100 {
		t.Fatalf("reloaded %d rows, want 100", rows)
	}
	if !sawDict {
		t.Error("no partition reloaded the tag column dictionary-encoded")
	}
}

func TestPersistAppendAfterReload(t *testing.T) {
	dir := t.TempDir()
	persistRows(t, dir, 10)

	c := NewCatalog(dir, true)
	tab, err := c.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Append([]variant.Value{variant.Int(1000), variant.String("late"), variant.Null}); err != nil {
		t.Fatal(err)
	}
	if err := tab.Flush(); err != nil {
		t.Fatal(err)
	}

	c2 := NewCatalog(dir, true)
	tab2, err := c2.Table("ev")
	if err != nil {
		t.Fatal(err)
	}
	if got := tab2.NumRows(); got != 11 {
		t.Fatalf("NumRows after reload+append = %d, want 11", got)
	}
}

func TestPersistDropTableRemovesDir(t *testing.T) {
	dir := t.TempDir()
	persistRows(t, dir, 5)
	c := NewCatalog(dir, true)
	if _, err := c.Table("ev"); err != nil {
		t.Fatal(err)
	}
	c.DropTable("ev")
	if _, err := os.Stat(filepath.Join(dir, "ev")); !os.IsNotExist(err) {
		t.Fatalf("table dir still exists: %v", err)
	}
	if _, err := c.Table("ev"); err == nil {
		t.Fatal("dropped table still resolvable")
	}
}

// corruptPartitionFile mutates the first partition file of table "ev" in dir.
func corruptPartitionFile(t *testing.T, dir string, mutate func([]byte) []byte) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "ev", partPrefix+"*"+partSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no partition files: %v", err)
	}
	path := matches[0]
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(buf), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPersistCorruptionIsStructuredError(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		// headerErr: the error should already surface when the catalog opens
		// the table (header damage); otherwise it surfaces at EnsureLoaded.
		headerErr bool
	}{
		{name: "bad magic", mutate: func(b []byte) []byte { b[0] = 'X'; return b }, headerErr: true},
		{name: "bad version", mutate: func(b []byte) []byte { b[4] = 99; return b }, headerErr: true},
		{name: "truncated header", mutate: func(b []byte) []byte { return b[:8] }, headerErr: true},
		{name: "truncated data", mutate: func(b []byte) []byte { return b[:len(b)-10] }, headerErr: true},
		{name: "garbage data section", mutate: func(b []byte) []byte {
			for i := len(b) - 20; i < len(b); i++ {
				b[i] = 0xFF
			}
			return b
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			persistRows(t, dir, 20)
			corruptPartitionFile(t, dir, tc.mutate)

			c := NewCatalog(dir, true)
			tab, err := c.Table("ev")
			if tc.headerErr {
				if err == nil {
					t.Fatal("expected an open error for header corruption")
				}
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("error %v is not a *CorruptError", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("header-intact corruption failed at open: %v", err)
			}
			var loadErr error
			for _, p := range tab.Partitions() {
				if _, err := p.EnsureLoaded(); err != nil {
					loadErr = err
				}
			}
			if loadErr == nil {
				t.Fatal("expected a load error for data corruption")
			}
			var ce *CorruptError
			if !errors.As(loadErr, &ce) {
				t.Fatalf("error %v is not a *CorruptError", loadErr)
			}
		})
	}
}
