package jsonpark_test

import (
	"fmt"
	"log"

	"jsonpark"
)

// Example shows the end-to-end flow: stage nested JSON, translate a JSONiq
// query to a single SQL string, and execute it.
func Example() {
	w := jsonpark.Open()
	if err := w.CreateCollection("orders", []string{"id", "items"}); err != nil {
		log.Fatal(err)
	}
	docs := []string{
		`{"id": 1, "items": [{"sku": "apple", "qty": 2}, {"sku": "pear", "qty": 1}]}`,
		`{"id": 2, "items": []}`,
	}
	for _, d := range docs {
		if err := w.LoadJSON("orders", d); err != nil {
			log.Fatal(err)
		}
	}
	items, err := w.QueryItems(`
		for $o in collection("orders")
		for $i in $o.items[]
		where $i.qty gt 1
		return {"order": $o.id, "sku": $i.sku}`)
	if err != nil {
		log.Fatal(err)
	}
	for _, it := range items {
		fmt.Println(it.JSON())
	}
	// Output:
	// {"order":1,"sku":"apple"}
}

// ExampleWarehouse_Query_nested demonstrates the nested-query semantics of
// §IV-B/C: order 2 has no items but still appears with an empty result.
func ExampleWarehouse_Query_nested() {
	w := jsonpark.Open()
	_ = w.CreateCollection("orders", []string{"id", "items"})
	_ = w.LoadJSON("orders", `{"id": 1, "items": [{"qty": 5}]}`)
	_ = w.LoadJSON("orders", `{"id": 2, "items": []}`)
	items, err := w.QueryItems(`
		for $o in collection("orders")
		let $big := (for $i in $o.items[] where $i.qty gt 1 return $i.qty)
		order by $o.id
		return {"id": $o.id, "big": $big}`,
		jsonpark.WithStrategy(jsonpark.StrategyAuto))
	if err != nil {
		log.Fatal(err)
	}
	for _, it := range items {
		fmt.Println(it.JSON())
	}
	// Output:
	// {"id":1,"big":[5]}
	// {"id":2,"big":[]}
}

// ExampleWarehouse_Translate shows that a JSONiq query becomes one native
// SQL query.
func ExampleWarehouse_Translate() {
	w := jsonpark.Open()
	_ = w.CreateCollection("t", []string{"a"})
	sql, err := w.Translate(`for $x in collection("t") where $x.a gt 1 return $x.a`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(sql[:6])
	// Output:
	// SELECT
}

// ExampleInterpret cross-checks a translated query against the interpreted
// back-end over the same documents. The interpreter reads the documents
// exactly as they are passed: a missing field stays apart from an explicit
// null, and 1 from 1.0, where staging stores the missing field as NULL.
func ExampleInterpret() {
	w := jsonpark.Open()
	if err := w.CreateCollection("docs", []string{"id", "v"}); err != nil {
		log.Fatal(err)
	}
	var docs []jsonpark.Value
	for _, d := range []string{`{"id": 1, "v": 1}`, `{"id": 2, "v": 1.0}`, `{"id": 3, "v": null}`, `{"id": 4}`} {
		v, err := jsonpark.ParseJSON(d)
		if err != nil {
			log.Fatal(err)
		}
		if err := w.LoadObject("docs", v); err != nil {
			log.Fatal(err)
		}
		docs = append(docs, v)
	}
	collections := map[string][]jsonpark.Value{"docs": docs}
	const q = `for $d in collection("docs") order by $d.id return {"id": $d.id, "v": $d.v}`
	translated, err := w.QueryItems(q)
	if err != nil {
		log.Fatal(err)
	}
	interpreted, err := jsonpark.Interpret(q, collections)
	if err != nil {
		log.Fatal(err)
	}
	for _, it := range translated {
		fmt.Println("translated ", it.JSON())
	}
	for _, it := range interpreted {
		fmt.Println("interpreted", it.JSON())
	}
	exact, err := jsonpark.Interpret(`for $d in collection("docs") return $d`, collections)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range exact {
		fmt.Println("document   ", d.JSON())
	}
	// Output:
	// translated  {"id":1,"v":1}
	// translated  {"id":2,"v":1.0}
	// translated  {"id":3,"v":null}
	// translated  {"id":4,"v":null}
	// interpreted {"id":1,"v":1}
	// interpreted {"id":2,"v":1.0}
	// interpreted {"id":3,"v":null}
	// interpreted {"id":4,"v":null}
	// document    {"id":1,"v":1}
	// document    {"id":2,"v":1.0}
	// document    {"id":3,"v":null}
	// document    {"id":4}
}
