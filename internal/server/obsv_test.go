package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"jsonpark"

	"jsonpark/internal/obsv/qlog"
)

// syncBuffer collects qlog output from the handler goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// One /query request must produce exactly one parseable qlog JSON record
// with trace ID, per-phase timings, memory/spill accounting and status.
func TestQueryLogRecordPerQuery(t *testing.T) {
	var buf syncBuffer
	w := jsonpark.Open(jsonpark.WithSlowQueryMillis(0))
	s := New(w, WithQueryLog(qlog.New(&buf)))
	srv := httptest.NewServer(s)
	defer srv.Close()
	loadOrders(t, srv)

	code, out := post(t, srv, "/query", ordersQuery)
	if code != http.StatusOK {
		t.Fatalf("query: %d %v", code, out)
	}
	traceID, _ := out["trace_id"].(string)

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("want exactly 1 qlog record, got %d:\n%s", len(lines), buf.String())
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("qlog record is not JSON: %v\n%s", err, lines[0])
	}
	if rec["trace_id"] != traceID {
		t.Errorf("trace_id = %v, want %v", rec["trace_id"], traceID)
	}
	if rec["status"] != "ok" {
		t.Errorf("status = %v", rec["status"])
	}
	for _, k := range []string{"parse_us", "plan_us", "sqlgen_us", "exec_us",
		"total_us", "rows", "mem_peak_bytes", "spill_bytes", "fingerprint"} {
		if _, found := rec[k]; !found {
			t.Errorf("record missing %q: %s", k, lines[0])
		}
	}
	// -slow-query-ms=0 captures every query, so the record is warn + slow.
	if rec["level"] != "warn" || rec["slow"] != true {
		t.Errorf("slow capture at threshold 0: level=%v slow=%v", rec["level"], rec["slow"])
	}
	if rec["rows"].(float64) != 2 {
		t.Errorf("rows = %v, want 2", rec["rows"])
	}
	if total := rec["total_us"].(float64); total <= 0 {
		t.Errorf("total_us = %v, want > 0", total)
	}
}

// A failed query still emits one qlog record, at error level, with the
// trace ID of the failed attempt.
func TestQueryLogErrorRecord(t *testing.T) {
	var buf syncBuffer
	w := jsonpark.Open()
	s := New(w, WithQueryLog(qlog.New(&buf)))
	srv := httptest.NewServer(s)
	defer srv.Close()

	code, _ := post(t, srv, "/query", `{"query": "for $x in"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("code = %d", code)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimSuffix(buf.String(), "\n")), &rec); err != nil {
		t.Fatalf("qlog record is not JSON: %v\n%s", err, buf.String())
	}
	if rec["level"] != "error" || rec["status"] != "error" {
		t.Errorf("level=%v status=%v", rec["level"], rec["status"])
	}
	if id, _ := rec["trace_id"].(string); id == "" {
		t.Errorf("error record missing trace_id: %s", buf.String())
	}
	if msg, _ := rec["error"].(string); msg == "" {
		t.Errorf("error record missing error message: %s", buf.String())
	}
}

// /debug/slow serves captured slow queries (span tree + plan snapshot)
// with no-store caching and a working ?limit=.
func TestDebugSlowEndpoint(t *testing.T) {
	w := jsonpark.Open(jsonpark.WithSlowQueryMillis(0))
	s := New(w, WithQueryLog(nil))
	srv := httptest.NewServer(s)
	defer srv.Close()
	loadOrders(t, srv)
	for i := 0; i < 3; i++ {
		if code, out := post(t, srv, "/query", ordersQuery); code != http.StatusOK {
			t.Fatalf("query: %d %v", code, out)
		}
	}

	resp, err := http.Get(srv.URL + "/debug/slow?limit=2")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("code = %d", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
		t.Errorf("Cache-Control = %q, want no-store", cc)
	}
	var out struct {
		Slow []struct {
			Trace struct {
				TraceID string            `json:"trace_id"`
				Attrs   map[string]string `json:"attrs"`
			} `json:"trace"`
			Plan map[string]any `json:"plan"`
		} `json:"slow"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Slow) != 2 {
		t.Fatalf("limit=2 returned %d captures", len(out.Slow))
	}
	top := out.Slow[0]
	if top.Trace.TraceID == "" {
		t.Error("capture missing trace_id")
	}
	if !strings.HasPrefix(top.Trace.Attrs["sql"], "SELECT") {
		t.Errorf("capture attrs.sql = %q", top.Trace.Attrs["sql"])
	}
	// Slow capture forces analyze on, so the EXPLAIN ANALYZE snapshot rides
	// along even though the client did not request it.
	if _, ok := top.Plan["rows_out"]; !ok {
		t.Errorf("capture lacks plan snapshot: %v", top.Plan)
	}
}

// A warehouse without slow capture armed serves an empty (but valid)
// /debug/slow.
func TestDebugSlowDisabledByDefault(t *testing.T) {
	srv := testServer(t)
	loadOrders(t, srv)
	post(t, srv, "/query", ordersQuery)
	resp, err := http.Get(srv.URL + "/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if slow, ok := out["slow"].([]any); ok && len(slow) != 0 {
		t.Errorf("slow captures without arming: %v", slow)
	}
}

// /debug/queries must send Cache-Control: no-store and honor ?limit=
// (with ?n= as the legacy alias).
func TestDebugQueriesHeadersAndLimit(t *testing.T) {
	srv := testServer(t)
	loadOrders(t, srv)
	for i := 0; i < 3; i++ {
		post(t, srv, "/query", ordersQuery)
	}
	for _, param := range []string{"limit=2", "n=2"} {
		resp, err := http.Get(srv.URL + "/debug/queries?" + param)
		if err != nil {
			t.Fatal(err)
		}
		if cc := resp.Header.Get("Cache-Control"); cc != "no-store" {
			t.Errorf("%s: Cache-Control = %q", param, cc)
		}
		var out struct {
			Queries []any `json:"queries"`
			Active  []any `json:"active"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Queries) != 2 {
			t.Errorf("%s: %d traces, want 2", param, len(out.Queries))
		}
		if out.Active == nil {
			t.Errorf("%s: response lacks active list", param)
		}
	}
	resp, err := http.Get(srv.URL + "/debug/queries?limit=-1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative limit code = %d", resp.StatusCode)
	}
}

// A query observed mid-flight must appear in /debug/queries' active list
// with non-zero per-operator row counts.
func TestDebugQueriesShowsInFlightProgress(t *testing.T) {
	w := jsonpark.Open(jsonpark.WithBatchSize(1), jsonpark.WithParallelism(1))
	s := New(w, WithQueryLog(nil))
	srv := httptest.NewServer(s)
	defer srv.Close()
	loadOrders(t, srv)

	paused := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	w.Engine().SetExecBatchHook(func() {
		once.Do(func() {
			close(paused)
			<-release
		})
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(ordersQuery))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()

	<-paused
	resp, err := http.Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Active []struct {
			TraceID   string `json:"trace_id"`
			SQL       string `json:"sql"`
			Operators []struct {
				Op   string `json:"op"`
				Rows int64  `json:"rows"`
			} `json:"operators"`
		} `json:"active"`
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	close(release)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Active) != 1 {
		t.Fatalf("active = %d queries, want 1", len(out.Active))
	}
	q := out.Active[0]
	if q.TraceID == "" {
		t.Error("active entry missing trace_id")
	}
	if !strings.HasPrefix(q.SQL, "SELECT") {
		t.Errorf("active entry SQL = %q", q.SQL)
	}
	var sawRows bool
	for _, op := range q.Operators {
		if op.Rows > 0 {
			sawRows = true
		}
	}
	if !sawRows {
		t.Errorf("no operator shows rows mid-flight: %+v", q.Operators)
	}
}

// The pprof surface must be mounted: the index and a short CPU profile
// both answer 200.
func TestPprofEndpoints(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Fatalf("pprof index: code=%d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof profile: code=%d", resp.StatusCode)
	}
}

// /metrics must include the runtime sampler gauges and the per-phase
// histogram family.
func TestMetricsRuntimeAndPhaseFamilies(t *testing.T) {
	srv := testServer(t)
	loadOrders(t, srv)
	post(t, srv, "/query", ordersQuery)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	body := string(raw)
	for _, want := range []string{
		"jsonpark_goroutines",
		"jsonpark_heap_alloc_bytes",
		`jsonpark_query_phase_seconds_count{phase="exec"} 1`,
		`jsonpark_query_status_seconds_count{status="ok"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if strings.Contains(body, "jsonpark_goroutines 0\n") {
		t.Error("runtime gauges not sampled at scrape time")
	}
}
