package snowpark

import (
	"strings"
	"testing"

	"jsonpark/internal/engine"
	"jsonpark/internal/variant"
)

func testSession(t *testing.T) *Session {
	t.Helper()
	eng := engine.New()
	orders, err := eng.Catalog().CreateTable("orders", []string{"o_id", "o_totalprice", "o_clerk"})
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]variant.Value{
		{variant.Int(1), variant.Float(95000), variant.String("alice")},
		{variant.Int(2), variant.Float(50000), variant.String("bob")},
		{variant.Int(3), variant.Float(110000), variant.String("alice")},
		{variant.Int(4), variant.Float(115000), variant.String("carol")},
	}
	for _, r := range rows {
		if err := orders.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	adl, err := eng.Catalog().CreateTable("adl", []string{"EVENT", "Muon"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{
		`{"EVENT": 1, "Muon": [{"pt": 30.0}, {"pt": 5.0}]}`,
		`{"EVENT": 2, "Muon": []}`,
	} {
		if err := adl.AppendObject(variant.MustParseJSON(r)); err != nil {
			t.Fatal(err)
		}
	}
	return NewSession(eng)
}

// TestFig2aProgram reproduces the paper's Figure 2a Snowpark program and
// checks both the generated SQL shape and the result.
func TestFig2aProgram(t *testing.T) {
	s := testSession(t)
	df, err := s.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	lower := LitInt(90000)
	upper := LitInt(120000)
	totalPrice := Col("o_totalprice")
	clerks := Col("o_clerk")
	out, err := df.Where(totalPrice.Between(lower, upper)).
		Select(CountDistinct(clerks).As("n"))
	if err != nil {
		t.Fatal(err)
	}
	sql := out.SQL()
	if !strings.Contains(sql, "COUNT(DISTINCT ") {
		t.Errorf("sql = %s", sql)
	}
	if !strings.Contains(sql, "WHERE") || strings.Count(sql, "SELECT") < 2 {
		t.Errorf("expected nested SELECTs like Fig 2b, got %s", sql)
	}
	res, err := out.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 2 {
		t.Errorf("distinct clerks = %v", res.Rows[0][0])
	}
}

func TestLazyNoExecutionBeforeCollect(t *testing.T) {
	s := testSession(t)
	df, err := s.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	// Composing against a dropped table must not fail until Collect.
	chain := df.Where(Col("o_id").Gt(LitInt(0))).Limit(10)
	s.Engine().Catalog().DropTable("orders")
	if _, err := chain.Collect(); err == nil {
		t.Error("collect after drop should fail, proving execution is lazy")
	}
}

func TestWithColumnAndDrop(t *testing.T) {
	s := testSession(t)
	df, _ := s.Table("orders")
	df2 := df.WithColumn("doubled", Col("o_totalprice").Mul(LitInt(2)))
	if len(df2.Columns()) != 4 {
		t.Fatalf("cols = %v", df2.Columns())
	}
	df3, err := df2.Drop("o_clerk", "o_totalprice")
	if err != nil {
		t.Fatal(err)
	}
	res, err := df3.Sort(Asc(Col("o_id"))).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 2 || res.Rows[0][1].AsFloat() != 190000 {
		t.Errorf("res = %v %v", res.Columns, res.Rows[0])
	}
}

func TestWithColumnReplaceExisting(t *testing.T) {
	s := testSession(t)
	df, _ := s.Table("orders")
	df2 := df.WithColumn("o_totalprice", LitInt(1))
	if len(df2.Columns()) != 3 {
		t.Fatalf("cols = %v", df2.Columns())
	}
	res, err := df2.Collect()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row[1].AsInt() != 1 {
			t.Errorf("replaced column = %v", row[1])
		}
	}
}

func TestFlattenAndRegroup(t *testing.T) {
	s := testSession(t)
	df, _ := s.Table("adl")
	withID := df.WithColumn("rid", Seq8())
	flat := withID.Flatten(Col("Muon"), "f", true)
	if flat.Columns()[len(flat.Columns())-2] != "f.VALUE" {
		t.Fatalf("cols = %v", flat.Columns())
	}
	regrouped, err := flat.GroupBy(Col("rid")).Agg(
		AnyValue(Col("EVENT")).As("ev"),
		ArrayAgg(FlattenValue("f")).As("muons"),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := regrouped.Sort(Asc(Col("ev"))).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Output columns are the group keys then the aggregates: rid, ev, muons.
	if res.Rows[0][2].Len() != 2 || res.Rows[1][2].Len() != 0 {
		t.Errorf("muon arrays = %v / %v", res.Rows[0][2], res.Rows[1][2])
	}
}

func TestJoinRequiresDistinctColumns(t *testing.T) {
	s := testSession(t)
	a, _ := s.Table("orders")
	b, _ := s.Table("orders")
	if _, err := a.Join(b, Col("o_id").Eq(Col("o_id")), JoinInner); err == nil {
		t.Error("join with shared column names should fail")
	}
}

func TestJoinAndUnion(t *testing.T) {
	s := testSession(t)
	a, _ := s.Table("orders")
	aSel, err := a.Select(Col("o_id").As("left_id"), Col("o_clerk").As("left_clerk"))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Table("orders")
	bSel, err := b.Select(Col("o_id").As("right_id"))
	if err != nil {
		t.Fatal(err)
	}
	joined, err := aSel.Join(bSel, Col("left_id").Eq(Col("right_id")), JoinInner)
	if err != nil {
		t.Fatal(err)
	}
	res, err := joined.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("join rows = %d", len(res.Rows))
	}
	u, err := aSel.UnionAll(aSel)
	if err != nil {
		t.Fatal(err)
	}
	ur, err := u.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(ur.Rows) != 8 {
		t.Errorf("union rows = %d", len(ur.Rows))
	}
}

func TestGroupByExpressionKey(t *testing.T) {
	s := testSession(t)
	df, _ := s.Table("orders")
	g, err := df.GroupBy(Floor(Col("o_totalprice").Div(LitFloat(100000))).As("bucket")).
		Agg(CountStar().As("n"), Sum(Col("o_totalprice")).As("total"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := g.Sort(Asc(Col("bucket"))).Collect()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1].AsInt() != 2 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestDerivedColumnNeedsAlias(t *testing.T) {
	s := testSession(t)
	df, _ := s.Table("orders")
	if _, err := df.Select(Col("o_id").Add(LitInt(1))); err == nil {
		t.Error("unaliased derived column should error")
	}
}

func TestCaseBuilder(t *testing.T) {
	s := testSession(t)
	df, _ := s.Table("orders")
	sel, err := df.Select(
		Col("o_id").As("id"),
		CaseWhen(Col("o_totalprice").Gt(LitInt(100000)), LitString("big")).
			When(Col("o_totalprice").Gt(LitInt(60000)), LitString("mid")).
			Else(LitString("small")).As("size"),
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sel.Sort(Asc(Col("id"))).Collect()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"mid", "small", "big", "big"}
	for i, w := range want {
		if res.Rows[i][1].AsString() != w {
			t.Errorf("row %d size = %v, want %s", i, res.Rows[i][1], w)
		}
	}
}

func TestSQLIsSingleQueryRoundTrippable(t *testing.T) {
	s := testSession(t)
	df, _ := s.Table("adl")
	flat := df.WithColumn("rid", Seq8()).Flatten(Col("Muon"), "f", true)
	g, err := flat.GroupBy(Col("rid")).Agg(ArrayAgg(FlattenValue("f")).As("ms"))
	if err != nil {
		t.Fatal(err)
	}
	final := g.Sort(Asc(Col("rid"))).Limit(10)
	sql := final.SQL()
	// The engine parses and runs this exact text — one native SQL query.
	if _, err := s.Engine().Query(sql); err != nil {
		t.Fatalf("engine rejected generated SQL: %v\n%s", err, sql)
	}
}

func TestArrayAggOrderedGeneratesWithinGroup(t *testing.T) {
	s := testSession(t)
	df, _ := s.Table("orders")
	g, err := df.Agg(ArrayAggOrdered(Col("o_id"), Desc(Col("o_totalprice"))).As("ids"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.SQL(), "WITHIN GROUP") {
		t.Errorf("sql = %s", g.SQL())
	}
	res, err := g.Collect()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Index(0).AsInt() != 4 {
		t.Errorf("ids = %v", res.Rows[0][0])
	}
}

// TestFrameTablesAndRendered pins what a frame records: the table instances
// Session.Table resolved for it and its inputs, each once, through joins and
// unions; and a Rendered frame's SQL is the rendering it kept.
func TestFrameTablesAndRendered(t *testing.T) {
	s := testSession(t)
	orders, err := s.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	adl, err := s.Table("adl")
	if err != nil {
		t.Fatal(err)
	}
	again, err := s.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	renamed, err := again.Select(Col("o_id").As("id2"))
	if err != nil {
		t.Fatal(err)
	}
	self, err := orders.CrossJoin(renamed)
	if err != nil {
		t.Fatal(err)
	}
	both, err := self.CrossJoin(adl)
	if err != nil {
		t.Fatal(err)
	}
	ot, _ := s.Engine().Catalog().Table("orders")
	at, _ := s.Engine().Catalog().Table("adl")
	if got := both.Tables(); len(got) != 2 || got[0] != ot || got[1] != at {
		t.Fatalf("Tables() = %v, want [orders adl] once each", got)
	}
	if got := self.Tables(); len(got) != 1 || got[0] != ot {
		t.Fatalf("self-join Tables() = %v, want [orders]", got)
	}
	r := both.Rendered()
	if r.SQL() != both.SQL() || r.Rendered() != r {
		t.Fatal("a rendered frame's SQL differs from its rendering, or renders again")
	}
}
