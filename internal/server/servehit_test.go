package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"jsonpark"

	"jsonpark/internal/adl"
	"jsonpark/internal/core"
	"jsonpark/internal/hepdata"
	"jsonpark/internal/obsv/qlog"
	"jsonpark/internal/ssb"
	"jsonpark/internal/variant"
	"jsonpark/internal/vector"
)

// serveText is one /query request body of the serve_mix hot head.
type serveText struct {
	id   string
	body string
}

// baseTexts returns the 21 base texts serve_mix draws its hot head from:
// the eight ADL queries (q6 under the join strategy) and the 13 SSB ones.
func baseTexts() []serveText {
	var out []serveText
	for _, q := range adl.Queries() {
		req := map[string]string{"query": q.JSONiq}
		if q.Strategy == core.StrategyJoin {
			req["strategy"] = "join"
		}
		body, _ := json.Marshal(req)
		out = append(out, serveText{q.ID, string(body)})
	}
	for _, q := range ssb.Queries() {
		body, _ := json.Marshal(map[string]string{"query": q.JSONiq})
		out = append(out, serveText{"ssb" + q.ID, string(body)})
	}
	return out
}

// hitServer is a server over ADL and SSB data with jsqd's cache defaults
// (256 entries, 64 MiB of results) and a query log that writes to nowhere.
func hitServer(tb testing.TB, events int, sf float64) *Server {
	tb.Helper()
	w := jsonpark.Open(jsonpark.WithPlanCacheSize(256), jsonpark.WithResultCacheBytes(64<<20))
	if _, err := hepdata.Load(w.Engine(), "adl", 1, events); err != nil {
		tb.Fatal(err)
	}
	if err := ssb.Generate(1, ssb.SizesForScaleFactor(sf)).Load(w.Engine()); err != nil {
		tb.Fatal(err)
	}
	return New(w, WithQueryLog(qlog.New(io.Discard)))
}

// serveQuery posts one /query body straight into the handler.
func serveQuery(tb testing.TB, s *Server, body string) *httptest.ResponseRecorder {
	tb.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		tb.Fatalf("POST /query %s: status %d: %s", body, rec.Code, rec.Body)
	}
	return rec
}

// BenchmarkServeHit times a result-cache hit end to end through the /query
// handler, in process: every base text is warmed once, then each iteration
// serves one of them again. A hit's cost does not depend on the data size,
// so the data is small.
func BenchmarkServeHit(b *testing.B) {
	s := hitServer(b, 400, 0.5)
	texts := baseTexts()
	for _, q := range texts {
		serveQuery(b, s, q.body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveQuery(b, s, texts[i%len(texts)].body)
	}
}

// legacyBody is the /query success body as a map through json.Encoder, each
// item a json.RawMessage of Value.JSON: the encoding queryBody replaces.
func legacyBody(t *testing.T, rep *jsonpark.QueryReport) []byte {
	t.Helper()
	items := make([]json.RawMessage, len(rep.Result.Rows))
	for i, row := range rep.Result.Rows {
		items[i] = json.RawMessage(row[0].JSON())
	}
	out := map[string]any{
		"items":    items,
		"sql":      rep.SQL,
		"trace_id": rep.TraceID,
		"strategy": rep.Strategy,
		"metrics":  metricsOf(rep.Result),
	}
	if rep.Plan != nil {
		out["plan"] = rep.Plan
		out["plan_text"] = rep.RenderAnalyze()
	}
	var b strings.Builder
	if err := json.NewEncoder(&b).Encode(out); err != nil {
		t.Fatal(err)
	}
	return []byte(b.String())
}

// TestQueryBodyMatchesEncodingJSON pins the direct /query writer against the
// map encoding: byte for byte, and so decoding to the same value, for items
// with quotes, HTML characters, U+2028/U+2029, control characters, invalid
// UTF-8 and nested objects, an SQL text holding such characters too, with
// and without a plan, on the miss and on the hit.
func TestQueryBodyMatchesEncodingJSON(t *testing.T) {
	w := jsonpark.Open(jsonpark.WithResultCacheBytes(1 << 20))
	if err := w.CreateCollection("t", []string{"id", "s", "o"}); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{
		`{"id": 1, "s": "say \"hi\" \\ back", "o": {"k": ["<a href='x'>", "&amp;"]}}`,
		`{"id": 2, "s": "line\u2028para\u2029end", "o": {"nested": {"deep": [1, 2.5, null, true]}}}`,
		`{"id": 3, "s": "\u0000\u0001\u001f\b\f\n\r\t\u007f", "o": {"é": "😀中"}}`,
		`{"id": 4, "s": "<script>&</script>", "o": {}}`,
	} {
		if err := w.LoadJSON("t", d); err != nil {
			t.Fatal(err)
		}
	}
	// An invalid UTF-8 byte can only arrive through the library.
	if err := w.LoadObject("t", variant.ObjectFromPairs("id", variant.Int(5), "s", variant.String("bad\xffbyte"))); err != nil {
		t.Fatal(err)
	}
	const q = `for $d in collection("t") where $d.s ne "<&> " order by $d.id return {"d": $d, "s": $d.s}`
	for _, analyze := range []bool{true, false} {
		for run := 0; run < 2; run++ {
			var opts []jsonpark.QueryOption
			if analyze {
				opts = append(opts, jsonpark.WithAnalyze())
			}
			rep, err := w.QueryTraced(q, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if analyze && run == 0 && rep.Plan == nil {
				t.Fatal("an analyzed miss carries no plan")
			}
			got, err := queryBody(rep)
			if err != nil {
				t.Fatal(err)
			}
			if want := legacyBody(t, rep); string(got) != string(want) {
				t.Fatalf("analyze=%v run %d: body\n%s\nwant\n%s", analyze, run, got, want)
			}
			var gv, wv any
			if err := json.Unmarshal(got, &gv); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(legacyBody(t, rep), &wv); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gv, wv) {
				t.Fatalf("analyze=%v run %d: bodies decode to different values", analyze, run)
			}
		}
	}
}

// TestServeHitItemsEqualMiss pins that a result-cache hit writes the same
// items bytes as the miss that executed, for every base text of serve_mix,
// and the same body but for the timings and the trace ID.
func TestServeHitItemsEqualMiss(t *testing.T) {
	s := hitServer(t, 200, 0.05)
	type body struct {
		Items    json.RawMessage `json:"items"`
		SQL      string          `json:"sql"`
		Strategy string          `json:"strategy"`
		Metrics  struct {
			Rows int64 `json:"rows"`
		} `json:"metrics"`
	}
	decode := func(raw []byte) body {
		var b body
		if err := json.Unmarshal(raw, &b); err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, q := range baseTexts() {
		miss := decode(serveQuery(t, s, q.body).Body.Bytes())
		for i := 0; i < 2; i++ {
			hit := decode(serveQuery(t, s, q.body).Body.Bytes())
			if string(hit.Items) != string(miss.Items) {
				t.Fatalf("%s: hit items\n%s\nmiss items\n%s", q.id, hit.Items, miss.Items)
			}
			if hit.SQL != miss.SQL || hit.Strategy != miss.Strategy || hit.Metrics != miss.Metrics {
				t.Fatalf("%s: hit body %+v differs from the miss's %+v", q.id, hit, miss)
			}
		}
	}
	if h, _, _, _, _, _ := s.w.Engine().ResultCacheStats(); h != int64(2*len(baseTexts())) {
		t.Fatalf("result-cache hits = %d, want %d", h, 2*len(baseTexts()))
	}
}

// TestServerTestsPoisoned runs the server tests once more with every
// recycled vector register poisoned: result-cache rows and their encoded
// items must never alias storage the executor reuses.
func TestServerTestsPoisoned(t *testing.T) {
	vector.SetPoison(true)
	defer vector.SetPoison(false)
	for _, test := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"AdmissionShedsWith429", TestAdmissionShedsWith429},
		{"DebugGovernorAbsent", TestDebugGovernorAbsent},
		{"QueryLogRecordPerQuery", TestQueryLogRecordPerQuery},
		{"QueryLogErrorRecord", TestQueryLogErrorRecord},
		{"DebugSlowEndpoint", TestDebugSlowEndpoint},
		{"DebugSlowDisabledByDefault", TestDebugSlowDisabledByDefault},
		{"DebugQueriesHeadersAndLimit", TestDebugQueriesHeadersAndLimit},
		{"DebugQueriesShowsInFlightProgress", TestDebugQueriesShowsInFlightProgress},
		{"MetricsRuntimeAndPhaseFamilies", TestMetricsRuntimeAndPhaseFamilies},
		{"EndToEndHTTPFlow", TestEndToEndHTTPFlow},
		{"QueryStrategySelection", TestQueryStrategySelection},
		{"HTTPErrors", TestHTTPErrors},
		{"LoadRejectsNonObject", TestLoadRejectsNonObject},
		{"MetricsEndpoint", TestMetricsEndpoint},
		{"DebugQueriesEndpoint", TestDebugQueriesEndpoint},
		{"QueryAnalyzeOverHTTP", TestQueryAnalyzeOverHTTP},
		{"ConcurrentQueries", TestConcurrentQueries},
		{"ViewEndpoints", TestViewEndpoints},
		{"QueryBodyMatchesEncodingJSON", TestQueryBodyMatchesEncodingJSON},
		{"ServeHitItemsEqualMiss", TestServeHitItemsEqualMiss},
	} {
		t.Run(test.name, test.fn)
	}
}
