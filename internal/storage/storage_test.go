package storage

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"jsonpark/internal/variant"
)

func TestCatalogCreateAndLookup(t *testing.T) {
	c := NewCatalog("", true)
	if _, err := c.CreateTable("t", []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CreateTable("t", []string{"a"}); err == nil {
		t.Error("duplicate create should fail")
	}
	tab, err := c.Table("t")
	if err != nil || tab.Name != "t" {
		t.Fatalf("Table = %v, %v", tab, err)
	}
	if _, err := c.Table("missing"); err == nil {
		t.Error("missing table should fail")
	}
	c.DropTable("t")
	if _, err := c.Table("t"); err == nil {
		t.Error("dropped table should be gone")
	}
}

func TestAppendAndScanRoundTrip(t *testing.T) {
	tab := NewTable("t", []string{"id", "v"})
	for i := 0; i < 100; i++ {
		if err := tab.Append([]variant.Value{variant.Int(int64(i)), variant.Float(float64(i) / 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if tab.NumRows() != 100 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
	total := 0
	for _, p := range tab.Partitions() {
		vals := p.Column(0).Values()
		for range vals {
			total++
		}
	}
	if total != 100 {
		t.Fatalf("scanned %d rows", total)
	}
}

func TestAppendArityError(t *testing.T) {
	tab := NewTable("t", []string{"a", "b"})
	if err := tab.Append([]variant.Value{variant.Int(1)}); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestAppendObjectStagesByColumnName(t *testing.T) {
	tab := NewTable("adl", []string{"EVENT", "MET"})
	obj := variant.MustParseJSON(`{"EVENT": 7, "MET": {"pt": 12.5}, "extra": 1}`)
	if err := tab.AppendObject(obj); err != nil {
		t.Fatal(err)
	}
	p := tab.Partitions()[0]
	if p.Column(0).Values()[0].AsInt() != 7 {
		t.Error("EVENT column wrong")
	}
	if got := p.Column(1).Values()[0].Field("pt").AsFloat(); got != 12.5 {
		t.Errorf("MET.pt = %v", got)
	}
}

// A document that is not an object has no fields to stage; storing it as an
// all-NULL row would silently lose it.
func TestAppendObjectRejectsNonObjects(t *testing.T) {
	tab := NewTable("t", []string{"a"})
	for doc, kind := range map[string]string{`[1,2]`: "ARRAY", `5`: "NUMBER", `"s"`: "VARCHAR", `null`: "NULL"} {
		err := tab.AppendObject(variant.MustParseJSON(doc))
		if err == nil || !strings.Contains(err.Error(), kind) {
			t.Errorf("AppendObject(%s) = %v, want an error naming %s", doc, err, kind)
		}
	}
	if n := tab.NumRows(); n != 0 {
		t.Fatalf("rejected documents left %d rows", n)
	}
}

func TestPartitionSealingBySize(t *testing.T) {
	tab := NewTable("t", []string{"v"})
	tab.SetTargetPartitionBytes(256)
	for i := 0; i < 200; i++ {
		if err := tab.Append([]variant.Value{variant.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	parts := tab.Partitions()
	if len(parts) < 2 {
		t.Fatalf("expected multiple partitions, got %d", len(parts))
	}
	var rows int
	for _, p := range parts {
		rows += p.NumRows()
	}
	if rows != 200 {
		t.Fatalf("rows across partitions = %d", rows)
	}
}

func TestShreddedZoneMaps(t *testing.T) {
	tab := NewTable("adl", []string{"MET", "JET"})
	for i := 0; i < 10; i++ {
		met := variant.ObjectFromPairs("pt", variant.Float(float64(10+i)))
		jets := variant.Array(
			variant.ObjectFromPairs("pt", variant.Float(float64(i)), "eta", variant.Float(-1.5)),
			variant.ObjectFromPairs("pt", variant.Float(float64(i*10)), "eta", variant.Float(2.0)),
		)
		if err := tab.Append([]variant.Value{met, jets}); err != nil {
			t.Fatal(err)
		}
	}
	p := tab.Partitions()[0]
	st := p.Column(0).PathStat("pt")
	if st == nil {
		t.Fatal("no stats for MET.pt")
	}
	if st.Min.AsFloat() != 10 || st.Max.AsFloat() != 19 {
		t.Errorf("MET.pt zone map = [%v, %v]", st.Min, st.Max)
	}
	jst := p.Column(1).PathStat("[].pt")
	if jst == nil {
		t.Fatal("no stats for JET[].pt")
	}
	if jst.Min.AsFloat() != 0 || jst.Max.AsFloat() != 90 {
		t.Errorf("JET[].pt zone map = [%v, %v]", jst.Min, jst.Max)
	}
	if jst.NonNull != 20 {
		t.Errorf("JET[].pt count = %d", jst.NonNull)
	}
}

func TestZoneMapPruning(t *testing.T) {
	tab := NewTable("t", []string{"v"})
	tab.SetTargetPartitionBytes(1) // one row per partition
	for i := 0; i < 5; i++ {
		obj := variant.ObjectFromPairs("x", variant.Int(int64(i*100)))
		if err := tab.Append([]variant.Value{obj}); err != nil {
			t.Fatal(err)
		}
	}
	parts := tab.Partitions()
	if len(parts) != 5 {
		t.Fatalf("partitions = %d", len(parts))
	}
	pred := PrunePredicate{Column: "v", Path: "x", Op: PruneGt, Value: variant.Int(250)}
	var kept int
	for _, p := range parts {
		if p.MayMatch(0, pred) {
			kept++
		}
	}
	if kept != 2 { // 300, 400
		t.Errorf("kept %d partitions for x > 250, want 2", kept)
	}
	eq := PrunePredicate{Column: "v", Path: "x", Op: PruneEq, Value: variant.Int(100)}
	kept = 0
	for _, p := range parts {
		if p.MayMatch(0, eq) {
			kept++
		}
	}
	if kept != 1 {
		t.Errorf("kept %d partitions for x = 100, want 1", kept)
	}
}

func TestMayMatchMissingStatsIsConservative(t *testing.T) {
	tab := NewTable("t", []string{"v"})
	if err := tab.Append([]variant.Value{variant.ObjectFromPairs("x", variant.Int(1))}); err != nil {
		t.Fatal(err)
	}
	p := tab.Partitions()[0]
	// Unknown path: pruneable (only possible value is absent ⇒ NULL).
	pred := PrunePredicate{Column: "v", Path: "nope", Op: PruneEq, Value: variant.Int(1)}
	if p.MayMatch(0, pred) {
		t.Error("absent path should prune")
	}
	// Unknown column index: conservative true.
	if !p.MayMatch(99, pred) {
		t.Error("bad column index must not prune")
	}
}

func TestBytesAccounting(t *testing.T) {
	tab := NewTable("t", []string{"a", "b"})
	if err := tab.Append([]variant.Value{variant.Int(1), variant.String("xyz")}); err != nil {
		t.Fatal(err)
	}
	p := tab.Partitions()[0]
	if p.Column(0).Bytes() != 8 {
		t.Errorf("col a bytes = %d", p.Column(0).Bytes())
	}
	if p.Column(1).Bytes() != 11 {
		t.Errorf("col b bytes = %d", p.Column(1).Bytes())
	}
	if p.Bytes() != 19 {
		t.Errorf("partition bytes = %d", p.Bytes())
	}
	if tab.TotalBytes() != 19 {
		t.Errorf("total = %d", tab.TotalBytes())
	}
}

// Property: pruning never removes a partition that actually contains a
// matching row (soundness of zone maps).
func TestPruningSoundnessProperty(t *testing.T) {
	f := func(vals []int64, threshold int64) bool {
		if len(vals) == 0 {
			return true
		}
		tab := NewTable("t", []string{"v"})
		tab.SetTargetPartitionBytes(32) // several small partitions
		for _, x := range vals {
			if err := tab.Append([]variant.Value{variant.ObjectFromPairs("x", variant.Int(x))}); err != nil {
				return false
			}
		}
		pred := PrunePredicate{Column: "v", Path: "x", Op: PruneGt, Value: variant.Int(threshold)}
		for _, p := range tab.Partitions() {
			match := p.MayMatch(0, pred)
			// Check the ground truth within this partition.
			hasMatch := false
			for _, v := range p.Column(0).Values() {
				if v.Field("x").AsInt() > threshold {
					hasMatch = true
					break
				}
			}
			if hasMatch && !match {
				return false // unsound: pruned a matching partition
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionsSealOpenData(t *testing.T) {
	tab := NewTable("t", []string{"v"})
	for i := 0; i < 3; i++ {
		if err := tab.Append([]variant.Value{variant.Int(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	// Without an explicit Seal the rows must still be visible.
	if got := tab.NumRows(); got != 3 {
		t.Fatalf("NumRows before seal = %d", got)
	}
	// Appending after the implicit seal opens a fresh partition.
	if err := tab.Append([]variant.Value{variant.Int(99)}); err != nil {
		t.Fatal(err)
	}
	if got := tab.NumRows(); got != 4 {
		t.Fatalf("NumRows after more appends = %d", got)
	}
}

func TestTableNamesSorted(t *testing.T) {
	c := NewCatalog("", true)
	for _, n := range []string{"zeta", "alpha", "mid"} {
		if _, err := c.CreateTable(n, []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	names := c.TableNames()
	want := []string{"alpha", "mid", "zeta"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("names = %v", names)
	}
}
