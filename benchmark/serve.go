package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"jsonpark"
	"jsonpark/internal/ssb"
	"jsonpark/internal/variant"
)

// jsqdProc is a running cmd/jsqd child.
type jsqdProc struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	done    chan struct{} // closed once the process has been waited for
}

// startJsqd execs jsqd on a free loopback port and returns once it answers.
// Its stderr (query log included) goes to a file in dir.
func startJsqd(cfg config, dir string, args ...string) (*jsqdProc, error) {
	if cfg.jsqd == "" {
		return nil, fmt.Errorf("the serve workloads need -jsqd PATH (benchmark/run.sh builds and passes it)")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	p := &jsqdProc{url: "http://" + addr, logPath: filepath.Join(dir, "jsqd.log"), done: make(chan struct{})}
	logf, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	p.cmd = exec.Command(cfg.jsqd, append([]string{"-addr", addr}, args...)...)
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	// If the harness dies, the child must not outlive it.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		_ = p.cmd.Wait() // the exit status of a signalled child carries no information
		close(p.done)
	}()
	h := newHTTPClient(p.url)
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
		select {
		case <-p.done:
			return nil, fmt.Errorf("jsqd exited during start-up:\n%s", p.logTail())
		default:
		}
		if status, _, err := h.get("/collections"); err == nil && status == http.StatusOK {
			return p, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	p.stop()
	return nil, fmt.Errorf("jsqd did not answer within 20s:\n%s", p.logTail())
}

// stop sends SIGTERM (jsqd drains, flushes its data dir, exits) and waits.
// Stopping a stopped child does nothing.
func (p *jsqdProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only when already gone
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

func (p *jsqdProc) pid() string { return strconv.Itoa(p.cmd.Process.Pid) }

func (p *jsqdProc) logTail() string {
	b, _ := os.ReadFile(p.logPath) // best effort, for an error message
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// runDir makes a fresh directory under the scratch directory.
func runDir(cfg config) (string, error) {
	if cfg.scratch == "" {
		return "", fmt.Errorf("the serve workloads need -scratch DIR (benchmark/run.sh passes it)")
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.scratch, "run-"+cfg.workload+"-")
}

// httpClient is one client connection: requests on it are sequential and
// reuse one keep-alive connection.
type httpClient struct {
	c    *http.Client
	base string
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{&http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
	}, base}
}

func (h *httpClient) do(req *http.Request) (int, []byte, error) {
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (h *httpClient) get(path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, h.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return h.do(req)
}

// post returns the client-observed latency: request written to full body read.
func (h *httpClient) post(path string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, h.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	status, resp, err := h.do(req)
	return status, resp, time.Since(t0), err
}

// mustPost is for set-up calls, where any failure ends the run.
func (h *httpClient) mustPost(path string, v any) (time.Duration, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	status, resp, d, err := h.post(path, body)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("POST %s: %d %s", path, status, resp)
	}
	return d, nil
}

// queryResponse is the part of jsqd's /query and /views/query bodies the
// harness reads.
type queryResponse struct {
	Columns []string          `json:"columns"`
	Items   []json.RawMessage `json:"items"`
	Metrics struct {
		CompileUS int64 `json:"compile_us"`
		ExecUS    int64 `json:"exec_us"`
	} `json:"metrics"`
}

// itemValues decodes a response's items. A /views/query row is an array of
// cells; as in canonResult, a single cell stands for itself and several
// become an object keyed by column name.
func (q *queryResponse) itemValues() ([]variant.Value, error) {
	out := make([]variant.Value, len(q.Items))
	for i, raw := range q.Items {
		v, err := variant.ParseJSON(raw)
		if err != nil {
			return nil, err
		}
		if len(q.Columns) == 1 {
			v = v.Index(0)
		} else if len(q.Columns) > 1 {
			o := variant.NewObject()
			for c, name := range q.Columns {
				o.Set(name, v.Index(c))
			}
			v = variant.ObjectValue(o)
		}
		out[i] = v
	}
	return out, nil
}

func decodeResponse(status int, body []byte) (*queryResponse, []variant.Value, error) {
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %.200s", status, body)
	}
	var q queryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		return nil, nil, err
	}
	items, err := q.itemValues()
	return &q, items, err
}

// scrape reads jsqd's /metrics and sums each metric over its label sets.
func scrape(h *httpClient) (map[string]float64, error) {
	status, body, err := h.get("/metrics")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d %v", status, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		name, _, _ := strings.Cut(line[:i], "{")
		out[name] += v
	}
	return out, nil
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}

// cacheMetrics turns /metrics counter deltas over the window into ratios.
func cacheMetrics(r *runResult, before, after map[string]float64) {
	d := func(name string) float64 { return after[name] - before[name] }
	n := int(d("jsonpark_queries_total"))
	r.set("engine.plan_cache_hit_ratio", ratio(d("jsonpark_plan_cache_hits_total"), d("jsonpark_plan_cache_misses_total")), n)
	r.set("engine.plan_cache_evictions", d("jsonpark_plan_cache_evictions_total"), n)
	r.set("engine.result_cache_hit_ratio", ratio(d("jsonpark_result_cache_hits_total"), d("jsonpark_result_cache_misses_total")), n)
	r.set("engine.result_cache_invalidations", d("jsonpark_result_cache_invalidations_total"), n)
	r.set("server.shed_ratio", ratio(d("jsonpark_admission_shed_total"), d("jsonpark_admission_admitted_total")), n)
}

// upload creates the collections over /collections and posts the documents
// over /load in batches, returning each batch's latency in ms.
func upload(h *httpClient, tables []table, batch int) ([]float64, error) {
	var lat []float64
	for _, t := range tables {
		if _, err := h.mustPost("/collections", map[string]any{"name": t.name, "columns": t.cols}); err != nil {
			return nil, err
		}
		for lo := 0; lo < len(t.docs); lo += batch {
			d, err := h.mustPost("/load", loadBody(t.name, t.docs[lo:min(lo+batch, len(t.docs))]))
			if err != nil {
				return nil, err
			}
			lat = append(lat, ms(d))
		}
	}
	return lat, nil
}

// loadBody is a /load request; json.RawMessage keeps the documents' own
// encoding.
func loadBody(collection string, docs []variant.Value) map[string]any {
	raw := make([]json.RawMessage, len(docs))
	for i, d := range docs {
		raw[i] = json.RawMessage(d.JSON())
	}
	return map[string]any{"collection": collection, "documents": raw}
}

// clientLog is what one client goroutine observed.
type clientLog struct {
	attempted int
	failures  []string
	lat       []float64 // ms, successful /query requests
	overhead  []float64 // us, latency minus the compile+exec time jsqd reports
	respBytes []float64
}

// served is a jsqd child with the run directory it lives in and a client
// connection for everything outside the measured traffic.
type served struct {
	srv *jsqdProc
	dir string
	h   *httpClient
}

// dataDir is where a persistent jsqd of this run keeps its warehouse.
func (s *served) dataDir() string { return filepath.Join(s.dir, "data") }

// serve makes a run directory and starts jsqd in it, with or without a data
// directory.
func serve(cfg config, persistent bool) (*served, error) {
	dir, err := runDir(cfg)
	if err != nil {
		return nil, err
	}
	var args []string
	if persistent {
		args = []string{"-data-dir", filepath.Join(dir, "data")}
	}
	srv, err := startJsqd(cfg, dir, args...)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &served{srv, dir, newHTTPClient(srv.url)}, nil
}

// close stops jsqd and removes the run directory.
func (s *served) close() {
	s.srv.stop()
	os.RemoveAll(s.dir)
}

// mixState is serve_mix set up: the request population with its answers, and
// a preloaded, warmed jsqd.
type mixState struct {
	*served
	mix     *requestMix
	loadLat []float64
}

// setUpMix generates the data and the request population, computes the
// answers, starts jsqd, loads it over HTTP and sends every base text once.
func setUpMix(cfg config, r *runResult) (*mixState, error) {
	sz := sizesFor(cfg.smoke)
	tables := append(adlTables(cfg.seed, sz.adlEvents), ssbTables(cfg.seed, ssb.SizesForScaleFactor(sz.ssbSF))...)
	r.Sizes["adl_events"], r.Sizes["ssb_sf"] = float64(sz.adlEvents), sz.ssbSF
	nCold := coldTexts
	if cfg.smoke {
		nCold = 64
	}
	mix := &requestMix{base: baseRequests(), cold: coldRequests(tables, nCold)}
	r.Sizes["base_texts"], r.Sizes["cold_texts"] = float64(len(mix.base)), float64(len(mix.cold))

	// The library computes the base texts' answers, and confirms a few of the
	// cold texts' directly computed ones.
	w := jsonpark.Open()
	if _, _, _, err := loadTables(w.Engine(), tables); err != nil {
		return nil, err
	}
	answer := func(q *mixRequest) (uint64, error) {
		var opts []jsonpark.QueryOption
		if q.strategy == "join" {
			opts = append(opts, jsonpark.WithStrategy(jsonpark.StrategyJoin))
		}
		res, err := w.Query(q.query, opts...)
		if err != nil {
			return 0, fmt.Errorf("library answer for %s: %w", q.id, err)
		}
		return canonResult(res), nil
	}
	for i := range mix.base {
		want, err := answer(&mix.base[i])
		if err != nil {
			return nil, err
		}
		mix.base[i].want = want
	}
	for _, i := range []int{0, len(mix.cold)/2 - 1, len(mix.cold) / 2, len(mix.cold) - 1} {
		got, err := answer(&mix.cold[i])
		if err != nil {
			return nil, err
		}
		if got != mix.cold[i].want {
			return nil, fmt.Errorf("cold text %s: library answer differs from the direct computation", mix.cold[i].id)
		}
	}

	sv, err := serve(cfg, false)
	if err != nil {
		return nil, err
	}
	st := &mixState{served: sv, mix: mix}
	if st.loadLat, err = upload(st.h, tables, 500); err != nil {
		st.close()
		return nil, err
	}
	// Unmeasured warm-up: every base text once, so the window starts with the
	// hot head compiled and cached, as a long-running server would have it.
	for i := range mix.base {
		q := &mix.base[i]
		status, body, _, err := st.h.post("/query", q.body)
		var items []variant.Value
		if err == nil {
			_, items, err = decodeResponse(status, body)
		}
		if err == nil && canonValues(items) != q.want {
			err = fmt.Errorf("jsqd's answer differs from the library's")
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up %s: %w", q.id, err)
		}
	}
	return st, nil
}

// runServeMix is the read-only serving workload: a real jsqd with default
// flags, preloaded over HTTP, under a closed loop of nproc clients.
func runServeMix(cfg config, r *runResult) error {
	st, err := setUpRepeatedly(cfg, r, func() (*mixState, error) { return setUpMix(cfg, r) }, (*mixState).close)
	if err != nil {
		return err
	}
	defer st.close()
	mix, srv, setupClient := st.mix, st.srv, st.h

	before, err := scrape(setupClient)
	if err != nil {
		return err
	}
	clients := runtime.NumCPU()
	r.Sizes["clients"] = float64(clients)
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	logs := make([]clientLog, clients)
	window := time.Duration(cfg.seconds * float64(time.Second))
	sustainedRSS := watchRSS(srv.pid())
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h, draw, log := newHTTPClient(srv.url), mix.sampler(cfg.seed, c), &logs[c]
			for time.Since(start) < window {
				q := draw.next()
				id := rec.begin(span{Name: "http.query", Query: q.id, Path: "http", Pass: c})
				status, body, d, err := h.post("/query", q.body)
				rec.end(id)
				log.attempted++
				var resp *queryResponse
				var items []variant.Value
				if err == nil {
					resp, items, err = decodeResponse(status, body)
				}
				if err == nil && canonValues(items) != q.want {
					err = fmt.Errorf("wrong answer")
				}
				if err != nil {
					log.failures = append(log.failures, q.id+": "+err.Error())
					continue
				}
				log.lat = append(log.lat, ms(d))
				log.overhead = append(log.overhead, us(d)-float64(resp.Metrics.CompileUS+resp.Metrics.ExecUS))
				log.respBytes = append(log.respBytes, float64(len(body)))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	speed := r.windowSpeed(start, start.Add(elapsed))
	r.set("rss_p95_mb", sustainedRSS(), 1)
	after, err := scrape(setupClient)
	if err != nil {
		return err
	}

	var all clientLog
	for _, l := range logs {
		r.Attempted += l.attempted
		for _, f := range l.failures {
			r.fail("%s", f)
		}
		all.lat = append(all.lat, l.lat...)
		all.overhead = append(all.overhead, l.overhead...)
		all.respBytes = append(all.respBytes, l.respBytes...)
	}
	n := len(all.lat)
	r.set("throughput_qps", float64(n)/elapsed.Seconds()/speed, n)
	r.set("latency_p50_ms", median(all.lat)*speed, n)
	// Thousands of draws from a population: here the slow end is a percentile.
	r.set("latency_slow_ms", percentile(all.lat, 95)*speed, n)
	setTail(r, all.lat)
	r.set("server.overhead_us", median(all.overhead), n)
	r.set("server.response_bytes", median(all.respBytes), n)
	r.set("server.load_ms_per_batch", median(st.loadLat), len(st.loadLat))
	cacheMetrics(r, before, after)
	if rec != nil {
		r.Spans = rec.spans
	}
	return nil
}
