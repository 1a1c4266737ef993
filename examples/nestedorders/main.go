// Nested business data example: demonstrates the erroneous object
// elimination problem (§IV-C of the paper) and both published solutions.
// An order with no qualifying items must still appear with an empty result
// — naive flatten+filter+regroup would silently drop it.
package main

import (
	"fmt"
	"log"

	"jsonpark"
)

func main() {
	w := jsonpark.Open()
	if err := w.CreateCollection("orders", []string{"id", "region", "items"}); err != nil {
		log.Fatal(err)
	}
	var orders []jsonpark.Value
	for _, d := range []string{
		`{"id": 1, "region": "EU", "items": [{"sku": "a", "qty": 10, "price": 3.0}, {"sku": "b", "qty": 1, "price": 50.0}]}`,
		`{"id": 2, "region": "EU", "items": []}`,
		`{"id": 3, "region": "US", "items": [{"sku": "c", "qty": 2, "price": 5.0}]}`,
		`{"id": 4, "region": "US", "items": [{"sku": "d", "qty": 1, "price": 1.0}]}`,
	} {
		v, err := jsonpark.ParseJSON(d)
		if err != nil {
			log.Fatal(err)
		}
		if err := w.LoadObject("orders", v); err != nil {
			log.Fatal(err)
		}
		orders = append(orders, v)
	}

	// Per order: the skus of "large" line items (qty >= 2). Orders 2 (empty
	// array) and 4 (all items fail) must survive with empty arrays.
	query := `
		for $o in collection("orders")
		let $large := (
		  for $i in $o.items[]
		  where $i.qty ge 2
		  return $i.sku
		)
		order by $o.id
		return {"order": $o.id, "large": $large, "n": size($large)}`

	for _, strat := range []jsonpark.Strategy{jsonpark.StrategyKeepFlag, jsonpark.StrategyJoin} {
		fmt.Printf("--- strategy: %v ---\n", strat)
		sql, err := w.Translate(query, jsonpark.WithStrategy(strat))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("SQL length:", len(sql), "chars")
		items, err := w.QueryItems(query, jsonpark.WithStrategy(strat))
		if err != nil {
			log.Fatal(err)
		}
		for _, it := range items {
			fmt.Println(" ", it.JSON())
		}
		if len(items) != 4 {
			log.Fatalf("object elimination bug: only %d of 4 orders survived", len(items))
		}
	}

	// The interpreted back-end implements JSONiq semantics directly and
	// serves as the ground truth, over the same documents.
	interp, err := jsonpark.Interpret(query, map[string][]jsonpark.Value{"orders": orders})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("--- interpreted ground truth ---")
	for _, it := range interp {
		fmt.Println(" ", it.JSON())
	}
}
