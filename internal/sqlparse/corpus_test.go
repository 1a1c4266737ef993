package sqlparse_test

import (
	"testing"

	"jsonpark/internal/adl"
	"jsonpark/internal/core"
	"jsonpark/internal/sqlast"
	"jsonpark/internal/sqlparse"
	"jsonpark/internal/ssb"
)

// corpus returns the SQL the engine parses for the paper's queries: the
// generated and the handwritten texts of ADL q1–q8 and of SSB q1.1–q4.3.
func corpus(tb testing.TB) (adlGen, ssbGen, hand []string) {
	tb.Helper()
	sess, _, err := adl.Setup(1, 20)
	if err != nil {
		tb.Fatal(err)
	}
	for _, q := range adl.Queries() {
		res, err := core.Translate(sess, q.JSONiq, core.Options{Strategy: q.Strategy})
		if err != nil {
			tb.Fatalf("%s: %v", q.ID, err)
		}
		adlGen, hand = append(adlGen, res.SQL), append(hand, q.SQL)
	}
	ssess, err := ssb.Setup(1, 0.01)
	if err != nil {
		tb.Fatal(err)
	}
	for _, q := range ssb.Queries() {
		sql, err := ssb.TranslateSQL(ssess, q)
		if err != nil {
			tb.Fatal(err)
		}
		ssbGen, hand = append(ssbGen, sql), append(hand, q.SQL)
	}
	return adlGen, ssbGen, hand
}

// BenchmarkParse parses the generated ADL and SSB texts, the SQL the
// translator hands the engine on adl_compile and ssb_exec.
func BenchmarkParse(b *testing.B) {
	adlGen, ssbGen, _ := corpus(b)
	for _, set := range []struct {
		name  string
		texts []string
	}{{"adl", adlGen}, {"ssb", ssbGen}} {
		b.Run(set.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range set.texts {
					if _, err := sqlparse.Parse(src); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// FuzzSQLParse: on any input the parser returns, without panicking or
// hanging, and any input it accepts renders to text that parses back to
// the same rendering. The seeds are the generated and handwritten ADL and
// SSB texts.
func FuzzSQLParse(f *testing.F) {
	adlGen, ssbGen, hand := corpus(f)
	for _, texts := range [][]string{adlGen, ssbGen, hand} {
		for _, src := range texts {
			f.Add(src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := sqlparse.Parse(src)
		if err != nil {
			return
		}
		text := sqlast.Render(q)
		q2, err := sqlparse.Parse(text)
		if err != nil {
			t.Fatalf("the rendering of %q does not parse: %v\n%s", src, err, text)
		}
		if text2 := sqlast.Render(q2); text2 != text {
			t.Fatalf("round trip of %q unstable:\n%s\n%s", src, text, text2)
		}
	})
}
