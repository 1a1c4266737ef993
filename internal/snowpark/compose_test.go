package snowpark

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"jsonpark/internal/sqlast"
	"jsonpark/internal/variant"
)

// TestComposition pins where Select, Where and WithColumn extend the frame's
// own SELECT and where they wrap it, by the rendered SQL, and checks that
// each composed query returns what the same calls return when every call
// wraps (unfused: the SQL a one-SELECT-per-call client renders). Frames
// whose SELECT groups, orders, limits or is a set operation are the same
// either way.
func TestComposition(t *testing.T) {
	cases := []struct {
		name         string
		build        func(s *Session) (*DataFrame, error)
		sql, unfused string
	}{
		{
			name:    "where-over-seq8-keeps-its-own-layer",
			sql:     `SELECT * FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk", SEQ8() AS "rid" FROM "orders") WHERE ("o_totalprice" > 60000)`,
			unfused: `SELECT * FROM (SELECT *, SEQ8() AS "rid" FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders")) WHERE ("o_totalprice" > 60000)`,
			build: func(s *Session) (*DataFrame, error) {
				df, err := s.Table("orders")
				if err != nil {
					return nil, err
				}
				return df.WithColumn("rid", Seq8()).Where(Col("o_totalprice").Gt(LitInt(60000))), nil
			},
		},
		{
			name:    "where-over-a-seq4-call-keeps-its-own-layer",
			sql:     `SELECT * FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk", SEQ4() AS "rid" FROM "orders") WHERE ("o_totalprice" > 60000)`,
			unfused: `SELECT * FROM (SELECT *, SEQ4() AS "rid" FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders")) WHERE ("o_totalprice" > 60000)`,
			build: func(s *Session) (*DataFrame, error) {
				df, err := s.Table("orders")
				if err != nil {
					return nil, err
				}
				return df.WithColumn("rid", Call("seq4")).Where(Col("o_totalprice").Gt(LitInt(60000))), nil
			},
		},
		{
			name:    "with-column-reading-a-definition-wraps",
			sql:     `SELECT *, ("d" + 1) AS "q" FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk", ("o_totalprice" * 2) AS "d" FROM "orders")`,
			unfused: `SELECT *, ("d" + 1) AS "q" FROM (SELECT *, ("o_totalprice" * 2) AS "d" FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders"))`,
			build: func(s *Session) (*DataFrame, error) {
				df, err := s.Table("orders")
				if err != nil {
					return nil, err
				}
				return df.WithColumn("d", Col("o_totalprice").Mul(LitInt(2))).WithColumn("q", Col("d").Add(LitInt(1))), nil
			},
		},
		{
			name:    "renames-are-substituted",
			sql:     `SELECT "o_id" AS "id", "o_clerk" AS "clerk", ("o_clerk" || '!') AS "tag" FROM "orders" WHERE ("o_id" > 1)`,
			unfused: `SELECT *, ("clerk" || '!') AS "tag" FROM (SELECT * FROM (SELECT "o_id" AS "id", "o_clerk" AS "clerk" FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders")) WHERE ("id" > 1))`,
			build: func(s *Session) (*DataFrame, error) {
				df, err := s.Table("orders")
				if err != nil {
					return nil, err
				}
				sel, err := df.Select(Col("o_id").As("id"), Col("o_clerk").As("clerk"))
				if err != nil {
					return nil, err
				}
				return sel.Where(Col("id").Gt(LitInt(1))).WithColumn("tag", Col("clerk").Concat(LitString("!"))), nil
			},
		},
		{
			name:    "keep-flag-replacement-in-place",
			sql:     `SELECT "EVENT" AS "EVENT", "Muon" AS "Muon", (("keep" AND ("f".VALUE IS NOT NULL)) AND (GET("f".VALUE, 'pt') > 10)) AS "keep", "f".VALUE AS "f.VALUE", "f".INDEX AS "f.INDEX" FROM (SELECT "EVENT" AS "EVENT", "Muon" AS "Muon", TRUE AS "keep" FROM "adl"), LATERAL FLATTEN(INPUT => "Muon", OUTER => TRUE) AS "f"`,
			unfused: `SELECT "EVENT" AS "EVENT", "Muon" AS "Muon", ("keep" AND (GET("f".VALUE, 'pt') > 10)) AS "keep", "f".VALUE AS "f.VALUE", "f".INDEX AS "f.INDEX" FROM (SELECT "EVENT" AS "EVENT", "Muon" AS "Muon", ("keep" AND ("f".VALUE IS NOT NULL)) AS "keep", "f".VALUE AS "f.VALUE", "f".INDEX AS "f.INDEX" FROM (SELECT * FROM (SELECT *, TRUE AS "keep" FROM (SELECT "EVENT" AS "EVENT", "Muon" AS "Muon" FROM "adl")), LATERAL FLATTEN(INPUT => "Muon", OUTER => TRUE) AS "f"))`,
			build: func(s *Session) (*DataFrame, error) {
				df, err := s.Table("adl")
				if err != nil {
					return nil, err
				}
				flat := df.WithColumn("keep", LitBool(true)).Flatten(Col("Muon"), "f", true)
				flat = flat.WithColumn("keep", Col("keep").And(FlattenValue("f").IsNotNull()))
				return flat.WithColumn("keep", Col("keep").And(FlattenValue("f").SubField("pt").Gt(LitInt(10)))), nil
			},
		},
		{
			name:    "select-moves-a-definition-read-once",
			sql:     `SELECT "o_id" AS "id", SEQ8() AS "rid" FROM "orders"`,
			unfused: `SELECT "o_id" AS "id", "rid" AS "rid" FROM (SELECT *, SEQ8() AS "rid" FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders"))`,
			build: func(s *Session) (*DataFrame, error) {
				df, err := s.Table("orders")
				if err != nil {
					return nil, err
				}
				return df.WithColumn("rid", Seq8()).Select(Col("o_id").As("id"), Col("rid").As("rid"))
			},
		},
		{
			name:    "select-reading-a-definition-twice-wraps",
			sql:     `SELECT "d" AS "d", ("d" + 1) AS "e" FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk", ("o_id" * 2) AS "d" FROM "orders")`,
			unfused: `SELECT "d" AS "d", ("d" + 1) AS "e" FROM (SELECT *, ("o_id" * 2) AS "d" FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders"))`,
			build: func(s *Session) (*DataFrame, error) {
				df, err := s.Table("orders")
				if err != nil {
					return nil, err
				}
				return df.WithColumn("d", Col("o_id").Mul(LitInt(2))).Select(Col("d").As("d"), Col("d").Add(LitInt(1)).As("e"))
			},
		},
		{
			name:    "group-by-is-never-extended",
			sql:     `SELECT *, ("n" + 1) AS "m" FROM (SELECT "o_clerk" AS "o_clerk", COUNT("o_id") AS "n" FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders") GROUP BY "o_clerk") WHERE ("o_clerk" <> 'bob')`,
			unfused: `SELECT * FROM (SELECT *, ("n" + 1) AS "m" FROM (SELECT "o_clerk" AS "o_clerk", COUNT("o_id") AS "n" FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders") GROUP BY "o_clerk")) WHERE ("o_clerk" <> 'bob')`,
			build: func(s *Session) (*DataFrame, error) {
				df, err := s.Table("orders")
				if err != nil {
					return nil, err
				}
				g, err := df.GroupBy(Col("o_clerk")).Agg(Count(Col("o_id")).As("n"))
				if err != nil {
					return nil, err
				}
				return g.WithColumn("m", Col("n").Add(LitInt(1))).Where(Col("o_clerk").Ne(LitString("bob"))), nil
			},
		},
		{
			name:    "order-by-is-never-extended",
			sql:     `SELECT * FROM (SELECT * FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders") ORDER BY "o_id" DESC) WHERE ("o_id" > 1)`,
			unfused: `SELECT * FROM (SELECT * FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders") ORDER BY "o_id" DESC) WHERE ("o_id" > 1)`,
			build: func(s *Session) (*DataFrame, error) {
				df, err := s.Table("orders")
				if err != nil {
					return nil, err
				}
				return df.Sort(Desc(Col("o_id"))).Where(Col("o_id").Gt(LitInt(1))), nil
			},
		},
		{
			name:    "limit-is-never-extended",
			sql:     `SELECT *, ("o_id" * 10) AS "x" FROM (SELECT * FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders") LIMIT 2)`,
			unfused: `SELECT *, ("o_id" * 10) AS "x" FROM (SELECT * FROM (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders") LIMIT 2)`,
			build: func(s *Session) (*DataFrame, error) {
				df, err := s.Table("orders")
				if err != nil {
					return nil, err
				}
				return df.Limit(2).WithColumn("x", Col("o_id").Mul(LitInt(10))), nil
			},
		},
		{
			name:    "union-all-is-never-extended",
			sql:     `SELECT "o_id" AS "id" FROM ((SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders") UNION ALL (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders"))`,
			unfused: `SELECT "o_id" AS "id" FROM ((SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders") UNION ALL (SELECT "o_id" AS "o_id", "o_totalprice" AS "o_totalprice", "o_clerk" AS "o_clerk" FROM "orders"))`,
			build: func(s *Session) (*DataFrame, error) {
				df, err := s.Table("orders")
				if err != nil {
					return nil, err
				}
				u, err := df.UnionAll(df)
				if err != nil {
					return nil, err
				}
				return u.Select(Col("o_id").As("id"))
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := testSession(t)
			df, err := c.build(s)
			if err != nil {
				t.Fatal(err)
			}
			if got := df.SQL(); got != c.sql {
				t.Errorf("SQL:\n got  %s\n want %s", got, c.sql)
			}
			got, err := df.Collect()
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.Engine().Query(c.unfused)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := rowsJSON(got.Rows), rowsJSON(want.Rows); g != w {
				t.Errorf("rows:\n got  %s\n want %s", g, w)
			}
		})
	}
}

func rowsJSON(rows [][]variant.Value) string {
	var b strings.Builder
	for _, row := range rows {
		for _, v := range row {
			b.WriteString(v.JSON())
			b.WriteByte(' ')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestCompositionMatchesUnfused builds random chains of Select, Where,
// WithColumn (new and replacing, SEQ8 included), Sort, Limit and GroupBy
// over the orders table twice — composed, and with every frame closed after
// each call so each call wraps — and requires the same rows in the same
// order from both.
func TestCompositionMatchesUnfused(t *testing.T) {
	s := testSession(t)
	rng := rand.New(rand.NewPCG(1, 2))
	for prog := 0; prog < 300; prog++ {
		fused, err := s.Table("orders")
		if err != nil {
			t.Fatal(err)
		}
		unfused := fused
		nums := []string{"o_id", "o_totalprice"}
		pick := func() Column { return Col(nums[rng.IntN(len(nums))]) }
		var steps []string
		apply := func(desc string, fn func(*DataFrame) (*DataFrame, error)) bool {
			f, err1 := fn(fused)
			u, err2 := fn(unfused)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("program %d %v: composed error %v, unfused error %v", prog, append(steps, desc), err1, err2)
			}
			if err1 != nil {
				return false
			}
			u.open = nil
			fused, unfused, steps = f, u, append(steps, desc)
			return true
		}
		for step := 0; step < 6; step++ {
			switch op := rng.IntN(8); op {
			case 0, 1: // a new column
				name := fmt.Sprintf("c%d", step)
				var c Column
				switch rng.IntN(3) {
				case 0:
					c = Seq8()
				case 1:
					c = pick().Add(LitInt(int64(rng.IntN(5))))
				default:
					c = pick().Mul(pick())
				}
				if apply("with "+name+" := "+sqlast.RenderExpr(c.expr), func(df *DataFrame) (*DataFrame, error) { return df.WithColumn(name, c), nil }) {
					nums = append(nums, name)
				}
			case 2: // replace a column, reading its old value
				name := nums[rng.IntN(len(nums))]
				c := Col(name).Add(pick())
				apply("replace "+name+" := "+sqlast.RenderExpr(c.expr), func(df *DataFrame) (*DataFrame, error) { return df.WithColumn(name, c), nil })
			case 3, 4:
				c := pick().Gt(LitInt(int64(rng.IntN(4))))
				apply("where "+sqlast.RenderExpr(c.expr), func(df *DataFrame) (*DataFrame, error) { return df.Where(c), nil })
			case 5: // keep some columns, renamed, plus one derived
				keep := nums[:1+rng.IntN(len(nums))]
				cols := []Column{pick().Sub(LitInt(1)).As(fmt.Sprintf("d%d", step))}
				for _, n := range keep {
					cols = append(cols, Col(n).As(n))
				}
				if apply(fmt.Sprintf("select %v", keep), func(df *DataFrame) (*DataFrame, error) { return df.Select(cols...) }) {
					nums = append(slices.Clone(keep), fmt.Sprintf("d%d", step))
				}
			case 6:
				k := pick()
				apply("sort "+sqlast.RenderExpr(k.expr), func(df *DataFrame) (*DataFrame, error) { return df.Sort(Desc(k), Asc(Col(nums[0]))), nil })
			case 7:
				apply("limit 3", func(df *DataFrame) (*DataFrame, error) { return df.Limit(3), nil })
			}
		}
		got, err := fused.Collect()
		if err != nil {
			t.Fatalf("program %d %v: %v\n%s", prog, steps, err, fused.SQL())
		}
		want, err := unfused.Collect()
		if err != nil {
			t.Fatalf("program %d %v unfused: %v\n%s", prog, steps, err, unfused.SQL())
		}
		if g, w := rowsJSON(got.Rows), rowsJSON(want.Rows); g != w {
			t.Fatalf("program %d %v:\ncomposed %s\n%s\nunfused  %s\n%s", prog, steps, fused.SQL(), g, unfused.SQL(), w)
		}
	}
}
