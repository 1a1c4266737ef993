package engine_test

import (
	"fmt"
	"testing"

	"jsonpark/internal/adl"
	"jsonpark/internal/core"
	"jsonpark/internal/engine"
)

// discardADLProbes return the per-event values the ADL histograms bin, so a
// top-1 that picked another element shows even where it would fall in the
// same bin: q6's best trijet read by field and whole, and q8's best pair and
// the leading other lepton.
var discardADLProbes = []string{
	`for $e in collection("adl")
where size($e.Jet) ge 3
let $best := (
  for $i in 1 to size($e.Jet)
  for $j in 1 to size($e.Jet)
  for $k in 1 to size($e.Jet)
  where $i lt $j and $j lt $k
  let $j1 := $e.Jet[[$i]]
  let $j2 := $e.Jet[[$j]]
  let $j3 := $e.Jet[[$k]]
  let $px := $j1.pt * cos($j1.phi) + $j2.pt * cos($j2.phi) + $j3.pt * cos($j3.phi)
  let $py := $j1.pt * sin($j1.phi) + $j2.pt * sin($j2.phi) + $j3.pt * sin($j3.phi)
  let $m := $j1.mass + $j2.mass + $j3.mass
  order by abs($m - 30)
  return {"pt": sqrt($px * $px + $py * $py), "trio": [$i, $j, $k], "mb": max([$j1.btag, $j2.btag, $j3.btag])}
)[[1]]
return {"ev": $e.EVENT, "pt": $best.pt, "trio": $best.trio}`,
	`for $e in collection("adl")
let $best := (
  for $i in 1 to size($e.Jet)
  for $j in 1 to size($e.Jet)
  where $i lt $j
  order by $e.Jet[[$i]].btag descending, $e.Jet[[$j]].btag
  return {"i": $i, "j": $j}
)[[1]]
return {"ev": $e.EVENT, "best": $best}`,
	`for $e in collection("adl")
let $leptons := concat($e.Muon[], $e.Electron[])
where size($leptons) ge 2
let $other := (
  for $k in 1 to size($leptons)
  order by $leptons[[$k]].charge, $leptons[[$k]].pt descending
  return $leptons[[$k]]
)[[1]]
return {"ev": $e.EVENT, "pt": $other.pt, "charge": $other.charge}`,
}

// TestDiscardRulesADLParity runs every ADL query — generated under
// keep-flag and join, and handwritten — and the probes above with the
// discard rules on and off (their oracle) over typed and variant storage,
// sequential and parallel, at two batch sizes: the rows must be identical.
func TestDiscardRulesADLParity(t *testing.T) {
	const events = 600
	var sqls []string
	probe, _, err := adl.Setup(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	translate := func(src string, s core.Strategy) string {
		res, err := core.Translate(probe, src, core.Options{Strategy: s})
		if err != nil {
			t.Fatalf("%v: %v\n%s", s, err, src)
		}
		return res.SQL
	}
	strategies := []core.Strategy{core.StrategyKeepFlag, core.StrategyJoin}
	for _, q := range adl.Queries() {
		for _, s := range strategies {
			sqls = append(sqls, translate(q.JSONiq, s))
		}
		sqls = append(sqls, q.SQL)
	}
	for _, src := range discardADLProbes {
		for _, s := range strategies {
			sqls = append(sqls, translate(src, s))
		}
	}
	for _, cell := range []struct {
		typed      bool
		par, batch int
	}{{true, 1, 1024}, {true, 4, 7}, {false, 1, 1024}, {false, 4, 7}} {
		run := func(off bool) []string {
			sess, _, err := adl.Setup(11, events, engine.WithTypedColumns(cell.typed),
				engine.WithParallelism(cell.par), engine.WithBatchSize(cell.batch))
			if err != nil {
				t.Fatal(err)
			}
			if off {
				engine.DisableDiscardRules(sess.Engine())
			}
			out := make([]string, len(sqls))
			for i, sql := range sqls {
				res, err := sess.Engine().Query(sql)
				if err != nil {
					t.Fatalf("%+v off=%v: %v\n%s", cell, off, err, sql)
				}
				out[i] = fmt.Sprint(res.Rows)
			}
			return out
		}
		on, off := run(false), run(true)
		for i := range sqls {
			if on[i] != off[i] {
				t.Errorf("%+v: rules on and off disagree on\n%s\n on: %.600s\noff: %.600s", cell, sqls[i], on[i], off[i])
			}
		}
	}
}
