// Package server exposes a warehouse over HTTP, mirroring the client
// interfaces of the paper's system architecture (§III-A1: REPL client,
// command line client, or REST server). Endpoints:
//
//	POST /query      {"query": "...", "strategy": "keep-flag"|"join"|"auto",
//	                  "analyze": true}
//	                 → {"items": [...], "sql": "...", "trace_id": "...",
//	                    "metrics": {...}, "plan": {...}}
//	POST /translate  {"query": "..."} → {"sql": "..."}
//	POST /load       {"collection": "c", "documents": [{...}, ...]}
//	POST /collections {"name": "c", "columns": ["a","b"]}
//	GET  /collections → {"collections": ["c", ...]}
//	POST /views      {"name": "v", "query": "...", "sql": "..."} registers an
//	                 incrementally maintained materialized view (JSONiq via
//	                 "query", or raw SQL via "sql")
//	GET  /views      → {"views": [{...}, ...]} registered views with refresh
//	                 accounting
//	POST /views/query {"name": "v"} → {"items": [...], "metrics": {...}}
//	                 incremental refresh + result of one view
//	GET  /metrics    Prometheus text exposition (query counts, phase/stage
//	                 latency histograms, runtime gauges, scan accounting)
//	GET  /debug/queries[?limit=20] in-flight queries with per-operator
//	                 progress, plus recent finished traces, newest first
//	GET  /debug/slow[?limit=10] slow-query captures: span tree + EXPLAIN
//	                 ANALYZE snapshot of queries over -slow-query-ms
//	GET  /debug/pprof/ Go runtime profiles (CPU, heap, goroutines, ...)
//
// Every /query request emits one structured JSON query-log record (qlog)
// with its trace ID, so a log line, the /debug/queries entry and the
// metrics it contributed to are joinable.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"time"

	"jsonpark"

	"jsonpark/internal/obsv"
	"jsonpark/internal/obsv/qlog"
	"jsonpark/internal/variant"
)

// StatusClientClosedRequest is the non-standard 499 status (nginx
// convention) reported when the client goes away mid-query.
const StatusClientClosedRequest = 499

// TenantHeader names the request header carrying the tenant identity for
// admission control; absent or empty means the default tenant.
const TenantHeader = "X-Tenant"

// Server wraps a warehouse with HTTP handlers.
type Server struct {
	w       *jsonpark.Warehouse
	mux     *http.ServeMux
	qlog    *qlog.Logger
	timeout time.Duration
}

// Option configures a Server.
type Option func(*Server)

// WithQueryTimeout bounds each /query request's execution; a query
// exceeding it is cancelled and answered with a structured 504. Values
// <= 0 (the default) disable the bound. The client disconnecting cancels
// the query regardless and is logged as a 499.
func WithQueryTimeout(d time.Duration) Option {
	return func(s *Server) { s.timeout = d }
}

// WithQueryLog routes the structured query log to l (default: a logger on
// os.Stderr). nil discards all query-log output.
func WithQueryLog(l *qlog.Logger) Option {
	return func(s *Server) { s.qlog = l }
}

// New builds a server over an existing warehouse.
func New(w *jsonpark.Warehouse, opts ...Option) *Server {
	s := &Server{w: w, mux: http.NewServeMux(), qlog: qlog.New(os.Stderr)}
	for _, o := range opts {
		o(s)
	}
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/translate", s.handleTranslate)
	s.mux.HandleFunc("/load", s.handleLoad)
	s.mux.HandleFunc("/collections", s.handleCollections)
	s.mux.HandleFunc("/views", s.handleViews)
	s.mux.HandleFunc("/views/query", s.handleViewQuery)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("/debug/slow", s.handleDebugSlow)
	s.mux.HandleFunc("/debug/governor", s.handleDebugGovernor)
	// Go runtime profiling, mounted explicitly (the server owns its mux, so
	// the net/http/pprof init-time DefaultServeMux registrations don't apply).
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

type queryRequest struct {
	Query    string `json:"query"`
	Strategy string `json:"strategy"`
	Analyze  bool   `json:"analyze"`
}

type metricsJSON struct {
	CompileMicros    int64 `json:"compile_us"`
	ExecMicros       int64 `json:"exec_us"`
	BytesScanned     int64 `json:"bytes_scanned"`
	PartitionsTotal  int64 `json:"partitions_total"`
	PartitionsPruned int64 `json:"partitions_pruned"`
	Rows             int64 `json:"rows"`
}

func metricsOf(res *jsonpark.Result) metricsJSON {
	return metricsJSON{
		CompileMicros:    res.Metrics.CompileTime.Microseconds(),
		ExecMicros:       res.Metrics.ExecTime.Microseconds(),
		BytesScanned:     res.Metrics.BytesScanned,
		PartitionsTotal:  res.Metrics.PartitionsTotal,
		PartitionsPruned: res.Metrics.PartitionsPruned,
		Rows:             res.Metrics.RowsReturned,
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// requireMethod rejects other HTTP methods with 405, a JSON error body and
// an Allow header listing the accepted methods.
func requireMethod(w http.ResponseWriter, r *http.Request, methods ...string) bool {
	for _, m := range methods {
		if r.Method == m {
			return true
		}
	}
	allow := ""
	for i, m := range methods {
		if i > 0 {
			allow += ", "
		}
		allow += m
	}
	w.Header().Set("Allow", allow)
	writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed; use %s", r.Method, allow))
	return false
}

// decodeJSON parses a request body, mapping malformed JSON to a 400 with a
// structured error body.
func decodeJSON(w http.ResponseWriter, r *http.Request, into any) bool {
	if err := json.NewDecoder(r.Body).Decode(into); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed request JSON: %w", err))
		return false
	}
	return true
}

func strategyOptions(name string) ([]jsonpark.QueryOption, error) {
	switch name {
	case "", "keep-flag":
		return nil, nil
	case "join":
		return []jsonpark.QueryOption{jsonpark.WithStrategy(jsonpark.StrategyJoin)}, nil
	case "auto":
		return []jsonpark.QueryOption{jsonpark.WithStrategy(jsonpark.StrategyAuto)}, nil
	}
	return nil, fmt.Errorf("unknown strategy %q", name)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req queryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	opts, err := strategyOptions(req.Strategy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.Analyze {
		opts = append(opts, jsonpark.WithAnalyze())
	}
	// The request context covers client disconnects; the optional server
	// timeout layers a deadline on top of it.
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	opts = append(opts, jsonpark.WithContext(ctx))
	// Admission: when a governor is attached, the request must win a tenant
	// slot (and the shared memory pool must have headroom) before any
	// translation or execution work starts. Shed requests cost one queue
	// wait, never a compile.
	if gov := s.w.Governor(); gov != nil {
		tenant := r.Header.Get(TenantHeader)
		release, aerr := gov.Admit(ctx, tenant)
		if aerr != nil {
			s.answerAdmission(w, req.Query, aerr)
			return
		}
		defer release()
	}
	rep, err := s.w.QueryTraced(req.Query, opts...)
	s.qlog.LogQuery(rep.QueryLogRecord())
	if err != nil {
		s.writeFailure(w, rep.Outcome.Status, err, "")
		return
	}
	body, err := queryBody(rep)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// queryBody writes the /query success body directly: the keys and values
// json.Encoder would write for the equivalent map, in its sorted key order
// and with its trailing newline. The items are the result's own encoding
// (Result.ItemsJSON) — on a result-cache hit the bytes the cache encoded
// once — the SQL is the report's encoding of it, made once per translation,
// and every string is escaped as encoding/json escapes it.
func queryBody(rep *jsonpark.QueryReport) ([]byte, error) {
	res := rep.Result
	items, err := res.ItemsJSON()
	if err != nil {
		return nil, err
	}
	sql := rep.SQLJSON()
	b := make([]byte, 0, len(items)+len(sql)+256)
	b = append(b, `{"items":`...)
	b = append(b, items...)
	metrics, err := json.Marshal(metricsOf(res))
	if err != nil {
		return nil, err
	}
	b = append(b, `,"metrics":`...)
	b = append(b, metrics...)
	if rep.Plan != nil {
		plan, err := json.Marshal(rep.Plan)
		if err != nil {
			return nil, err
		}
		b = append(b, `,"plan":`...)
		b = append(b, plan...)
		b = appendField(b, "plan_text", rep.RenderAnalyze())
	}
	b = append(b, `,"sql":`...)
	b = append(b, sql...)
	b = appendField(b, "strategy", rep.Strategy)
	b = appendField(b, "trace_id", rep.TraceID)
	return append(b, '}', '\n'), nil
}

// appendField appends `,"key":value` with value escaped as encoding/json
// escapes a string.
func appendField(b []byte, key, value string) []byte {
	b = append(b, ',', '"')
	b = append(b, key...)
	b = append(b, '"', ':')
	return variant.AppendJSONString(b, value)
}

// answerAdmission maps an admission failure onto the wire: shed requests
// become 429 with a Retry-After header and a "shed" qlog record; a client
// disconnect or server timeout while queued reuses the existing 499/504
// machinery.
func (s *Server) answerAdmission(w http.ResponseWriter, query string, err error) {
	var adm *jsonpark.AdmissionError
	if errors.As(err, &adm) {
		s.qlog.LogQuery(qlog.QueryRecord{Query: query, Status: qlog.StatusShed, Error: err.Error()})
		s.w.Observer().CountShed()
		retry := int64(adm.RetryAfter.Round(time.Second) / time.Second)
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.FormatInt(retry, 10))
		writeJSON(w, http.StatusTooManyRequests, map[string]any{
			"error":         err.Error(),
			"code":          "admission_shed",
			"tenant":        adm.Tenant,
			"retry_after_s": retry,
		})
		return
	}
	status := obsv.StatusOf(err)
	s.qlog.LogQuery(qlog.QueryRecord{Query: query, Status: status, Error: err.Error()})
	s.writeFailure(w, status, err, " while queued for admission")
}

// writeFailure answers a query that failed with err and status: a timeout
// is a structured 504, a cancellation a 499 and any other error a 400.
// while completes the timeout message ("" for a query that was running).
func (s *Server) writeFailure(w http.ResponseWriter, status string, err error, while string) {
	switch status {
	case qlog.StatusTimeout:
		writeJSON(w, http.StatusGatewayTimeout, map[string]any{
			"error":      fmt.Sprintf("query exceeded the server time limit of %s%s", s.timeout, while),
			"code":       "query_timeout",
			"timeout_ms": s.timeout.Milliseconds(),
		})
	case qlog.StatusCancelled:
		// Best-effort: the client that closed the request will not read
		// this body, but proxies and tests see a definite status.
		writeJSON(w, StatusClientClosedRequest, map[string]any{
			"error": "query cancelled: client closed request",
			"code":  "query_cancelled",
		})
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleTranslate(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req queryRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	opts, err := strategyOptions(req.Strategy)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sql, err := s.w.Translate(req.Query, opts...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"sql": sql})
}

type loadRequest struct {
	Collection string            `json:"collection"`
	Documents  []json.RawMessage `json:"documents"`
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req loadRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	for i, raw := range req.Documents {
		v, err := variant.ParseJSON(raw)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("document %d: %w", i, err))
			return
		}
		if err := s.w.LoadObject(req.Collection, v); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("document %d: %w", i, err))
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]int{"loaded": len(req.Documents)})
}

type createRequest struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
}

func (s *Server) handleCollections(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	if r.Method == http.MethodGet {
		writeJSON(w, http.StatusOK, map[string]any{
			"collections": s.w.Engine().Catalog().TableNames(),
		})
		return
	}
	var req createRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := s.w.CreateCollection(req.Name, req.Columns); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"created": req.Name})
}

type viewRequest struct {
	Name  string `json:"name"`
	Query string `json:"query"`
	SQL   string `json:"sql"`
}

// handleViews registers a materialized view (POST, from a JSONiq query or
// raw SQL) or lists the registered views (GET).
func (s *Server) handleViews(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	if r.Method == http.MethodGet {
		writeJSON(w, http.StatusOK, map[string]any{"views": s.w.ListViews()})
		return
	}
	var req viewRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	var err error
	switch {
	case req.Query != "" && req.SQL != "":
		err = fmt.Errorf("give either query or sql, not both")
	case req.Query != "":
		err = s.w.CreateView(req.Name, req.Query)
	case req.SQL != "":
		err = s.w.CreateSQLView(req.Name, req.SQL)
	default:
		err = fmt.Errorf("view needs a query or sql field")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"created": req.Name})
}

// handleViewQuery incrementally refreshes one view and returns its rows.
func (s *Server) handleViewQuery(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodPost) {
		return
	}
	var req viewRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	res, err := s.w.ViewResult(ctx, req.Name)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	items := make([][]json.RawMessage, len(res.Rows))
	for i, row := range res.Rows {
		cells := make([]json.RawMessage, len(row))
		for j, v := range row {
			cells[j] = json.RawMessage(v.JSON())
		}
		items[i] = cells
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"columns": res.Columns,
		"items":   items,
		"metrics": metricsOf(res),
	})
}

// handleMetrics serves the Prometheus text exposition of the warehouse's
// metrics registry, refreshing the runtime gauges (goroutines, heap, GC)
// at scrape time.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	s.w.Observer().SampleRuntime()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.w.Observer().Registry.Expose(w)
}

// parseLimit reads the ?limit= bound of a debug endpoint (0 = unbounded;
// "n" is accepted as a legacy alias on /debug/queries). Returns -1 after
// writing a 400 for malformed values.
func parseLimit(w http.ResponseWriter, r *http.Request) int {
	q := r.URL.Query().Get("limit")
	if q == "" {
		q = r.URL.Query().Get("n")
	}
	if q == "" {
		return 0
	}
	v, err := strconv.Atoi(q)
	if err != nil || v < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", q))
		return -1
	}
	return v
}

// noStore marks debug payloads uncacheable: they are point-in-time
// snapshots of live state.
func noStore(w http.ResponseWriter) {
	w.Header().Set("Cache-Control", "no-store")
}

// handleDebugQueries serves live and recent queries: "active" lists every
// in-flight query with per-operator progress (rows, batches, memory),
// "queries" the finished-trace ring (trace ID, attributes, span tree),
// newest first.
func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	n := parseLimit(w, r)
	if n < 0 {
		return
	}
	active := s.w.Engine().ProgressSnapshot()
	if n > 0 && len(active) > n {
		active = active[:n]
	}
	traces := s.w.Observer().Tracer.Recent(n)
	noStore(w)
	writeJSON(w, http.StatusOK, map[string]any{"active": active, "queries": traces})
}

// handleDebugGovernor serves a point-in-time snapshot of the resource
// governor: pool usage, per-tenant occupancy and the admitted/shed totals.
// 404 when the warehouse runs ungoverned.
func (s *Server) handleDebugGovernor(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	gov := s.w.Governor()
	if gov == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no governor attached"))
		return
	}
	noStore(w)
	writeJSON(w, http.StatusOK, gov.Snapshot())
}

// handleDebugSlow serves the slow-query ring: for each captured query the
// full span tree plus the EXPLAIN ANALYZE plan snapshot, newest first.
func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	if !requireMethod(w, r, http.MethodGet) {
		return
	}
	n := parseLimit(w, r)
	if n < 0 {
		return
	}
	slow := s.w.Observer().Slow.Recent(n)
	noStore(w)
	writeJSON(w, http.StatusOK, map[string]any{"slow": slow})
}
