package server

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

const (
	viewHist = `for $o in collection(\"orders\") group by $c := $o.cust order by $c return {\"cust\": $c, \"n\": count($o)}`
	viewSum  = `for $o in collection(\"orders\") group by $c := $o.cust order by $c return {\"cust\": $c, \"q\": sum($o.qty)}`
)

// A registered COUNT histogram answers /views/query with exactly what
// /query answers for the same text after every load, refreshing from the
// partitions each load sealed; non-mergeable or unknown views answer 400.
func TestViewEndpoints(t *testing.T) {
	srv := testServer(t)
	post(t, srv, "/collections", `{"name": "orders", "columns": ["id", "cust", "qty"]}`)

	code, out := post(t, srv, "/views", `{"name": "bycust", "query": "`+viewHist+`"}`)
	if code != http.StatusOK || out["created"] != "bycust" {
		t.Fatalf("create view: %d %v", code, out)
	}
	code, out = post(t, srv, "/views", `{"name": "qty", "query": "`+viewSum+`"}`)
	if msg, _ := out["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "not mergeable: SUM") {
		t.Fatalf("SUM view: %d %v, want 400 naming not mergeable: SUM", code, out)
	}

	for _, batch := range []string{
		`[{"id": 1, "cust": "ada", "qty": 2}, {"id": 2, "cust": "bob", "qty": 1}, {"id": 3, "cust": "ada", "qty": 4}]`,
		`[{"id": 4, "cust": "cy", "qty": 3}, {"id": 5, "cust": "bob", "qty": 6}]`,
	} {
		if code, out := post(t, srv, "/load", `{"collection": "orders", "documents": `+batch+`}`); code != http.StatusOK {
			t.Fatalf("load: %d %v", code, out)
		}
		code, view := post(t, srv, "/views/query", `{"name": "bycust"}`)
		if code != http.StatusOK {
			t.Fatalf("view query: %d %v", code, view)
		}
		code, query := post(t, srv, "/query", `{"query": "`+viewHist+`"}`)
		if code != http.StatusOK {
			t.Fatalf("query: %d %v", code, query)
		}
		rows, _ := view["items"].([]any)
		items, _ := query["items"].([]any)
		if len(rows) != len(items) || len(items) == 0 {
			t.Fatalf("view rows %v, query items %v", rows, items)
		}
		for i, row := range rows {
			if cells := row.([]any); len(cells) != 1 || !reflect.DeepEqual(cells[0], items[i]) {
				t.Errorf("view row %d = %v, query item %v", i, row, items[i])
			}
		}
	}

	resp, err := http.Get(srv.URL + "/views")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Views []struct {
			Name       string `json:"name"`
			Refreshes  int64  `json:"refreshes"`
			DeltaParts int64  `json:"delta_parts"`
		} `json:"views"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Views) != 1 || list.Views[0].Name != "bycust" || list.Views[0].Refreshes != 2 || list.Views[0].DeltaParts != 2 {
		t.Fatalf("GET /views = %+v, want bycust with 2 refreshes over 2 delta partitions", list.Views)
	}

	if code, out := post(t, srv, "/views/query", `{"name": "nope"}`); code != http.StatusBadRequest {
		t.Fatalf("unknown view: %d %v, want 400", code, out)
	}
}
