// HEP analysis example: the paper's motivating workload. Generates
// synthetic collision events with nested particle arrays, then runs an
// ADL-style dimuon analysis — a nested query with combinatorics, physics
// formulas and a histogram — through the JSONiq→SQL translation, and
// cross-checks the result against the interpreted baseline.
package main

import (
	"fmt"
	"log"

	"jsonpark"

	"jsonpark/internal/hepdata"
)

func main() {
	w := jsonpark.Open()
	if err := w.CreateCollection("adl", hepdata.Columns()); err != nil {
		log.Fatal(err)
	}
	events := hepdata.Events(42, 5000)
	for _, ev := range events {
		if err := w.LoadObject("adl", ev); err != nil {
			log.Fatal(err)
		}
	}

	// MET histogram of events containing an opposite-charge dimuon with
	// invariant mass near the Z boson (ADL Q5).
	query := `
		for $e in collection("adl")
		where exists(
		  for $i in 1 to size($e.Muon)
		  for $j in 1 to size($e.Muon)
		  where $i lt $j
		  let $m1 := $e.Muon[[$i]]
		  let $m2 := $e.Muon[[$j]]
		  where $m1.charge * $m2.charge lt 0
		  let $mass := sqrt(2 * $m1.pt * $m2.pt *
		       (cosh($m1.eta - $m2.eta) - cos($m1.phi - $m2.phi)))
		  where $mass gt 60 and $mass lt 120
		  return 1
		)
		group by $bin := floor($e.MET.pt div 10.0) * 10.0
		order by $bin
		return {"bin": $bin, "count": count($e)}`

	for _, strat := range []jsonpark.Strategy{jsonpark.StrategyKeepFlag, jsonpark.StrategyJoin} {
		res, err := w.Query(query, jsonpark.WithStrategy(strat))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("strategy %v: %d bins, compile=%v exec=%v scanned=%d bytes\n",
			strat, len(res.Rows), res.Metrics.CompileTime, res.Metrics.ExecTime,
			res.Metrics.BytesScanned)
	}

	res, err := w.Query(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nMET histogram (dimuon events):")
	for _, row := range res.Rows {
		o := row[0]
		bar := ""
		for i := int64(0); i < o.Field("count").AsInt(); i += 5 {
			bar += "#"
		}
		fmt.Printf("  %6.0f %5d %s\n", o.Field("bin").AsFloat(), o.Field("count").AsInt(), bar)
	}

	// Cross-check against the interpreted iterator back-end over the same
	// events.
	interp, err := jsonpark.Interpret(query, map[string][]jsonpark.Value{"adl": events})
	if err != nil {
		log.Fatal(err)
	}
	if len(interp) != len(res.Rows) {
		log.Fatalf("backends disagree: %d vs %d bins", len(interp), len(res.Rows))
	}
	fmt.Println("\ninterpreted back-end agrees on", len(interp), "bins")
}
