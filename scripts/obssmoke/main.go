// Command obssmoke is the observability smoke test behind `make obs-smoke`:
// it boots a real jsqd with slow-query capture armed and a query-log sink,
// runs the same query four times over HTTP with a streaming append (POST
// /load) between the second and third, and asserts the observability
// contract end to end — four parseable qlog JSON records carrying the
// required keys, the result cache flipping false→true→false→true across the
// append (the new partition makes the cached rows stale, then they re-warm)
// while the cached plan, which no data change makes stale, hits from the
// second run on — found under the query text, so the JSONiq frontend runs
// once — a populated /debug/slow, and a live /metrics exposition including
// the plan-, text- and result-cache counters. It also builds jsq and checks
// that a one-shot query that fails to parse still writes exactly one qlog
// record, with status error and the error text, and that -backend interp
// prints the same items as the default translated back-end over the smoke's
// data file.
// It exercises the same binaries and flags an operator would use, not the
// test harness.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// startupWait bounds how long the freshly built jsqd may take to listen.
const startupWait = 30 * time.Second

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "obssmoke:", err)
		os.Exit(1)
	}
	fmt.Println("obssmoke: ok")
}

func run() error {
	dir, err := os.MkdirTemp("", "obssmoke")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()

	data := filepath.Join(dir, "data.jsonl")
	docs := `{"id": 1, "items": [{"qty": 2}]}` + "\n" + `{"id": 2, "items": [{"qty": 5}]}` + "\n"
	if err := os.WriteFile(data, []byte(docs), 0o644); err != nil {
		return err
	}

	jsq, err := build(dir, "jsq")
	if err != nil {
		return err
	}
	if err := checkJSQ(jsq, dir, data); err != nil {
		return err
	}
	// go run would put the server behind an intermediary process that
	// orphans it on kill; build a real binary and manage it directly.
	bin, err := build(dir, "jsqd")
	if err != nil {
		return err
	}

	addr, err := freeAddr()
	if err != nil {
		return err
	}
	qlogPath := filepath.Join(dir, "query.log")
	srv := exec.Command(bin,
		"-addr", addr,
		"-data", data,
		"-collection", "smoke",
		"-slow-query-ms", "0",
		"-qlog", qlogPath,
	)
	srv.Stdout, srv.Stderr = os.Stderr, os.Stderr
	if err := srv.Start(); err != nil {
		return err
	}
	defer func() {
		_ = srv.Process.Signal(syscall.SIGTERM)
		_, _ = srv.Process.Wait()
	}()

	base := "http://" + addr
	if err := waitReady(base + "/metrics"); err != nil {
		return err
	}

	// The same query four times with a streaming append in the middle: runs
	// 1-2 warm the plan and its result, the append seals a new partition
	// (whose partition-set version makes the cached rows stale, never the
	// plan), and runs 3-4 must re-execute then re-hit the result cache.
	const query = `{"query": "for $o in collection(\"smoke\") order by $o.id return $o.id"}`
	runQuery := func(i int) error {
		status, _, err := postJSON(base+"/query", query)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("POST /query #%d: status %d", i, status)
		}
		return nil
	}
	for i := 1; i <= 2; i++ {
		if err := runQuery(i); err != nil {
			return err
		}
	}
	status, body, err := postJSON(base+"/load",
		`{"collection": "smoke", "documents": [{"id": 3, "items": [{"qty": 9}]}]}`)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("POST /load: status %d: %s", status, body)
	}
	for i := 3; i <= 4; i++ {
		if err := runQuery(i); err != nil {
			return err
		}
	}

	if err := checkQlog(qlogPath); err != nil {
		return err
	}
	if err := checkGet(base+"/debug/slow", `"trace_id"`); err != nil {
		return err
	}
	if err := checkGet(base+"/metrics", "jsonpark_query_phase_seconds"); err != nil {
		return err
	}
	if err := checkCounterAtLeast(base+"/metrics", "jsonpark_plan_cache_hits_total", 1); err != nil {
		return err
	}
	if err := checkCounterAtLeast(base+"/metrics", "jsonpark_text_cache_hits_total", 3); err != nil {
		return err
	}
	// Run 3's lookup found run 1's rows stale and counted it: staleness is
	// found lazily, and the benchmark reports this counter as
	// engine.result_cache_invalidations.
	if err := checkCounterAtLeast(base+"/metrics", "jsonpark_result_cache_invalidations_total", 1); err != nil {
		return err
	}
	return checkCounterAtLeast(base+"/metrics", "jsonpark_result_cache_hits_total", 2)
}

// build compiles ./cmd/name into dir and returns the binary's path.
func build(dir, name string) (string, error) {
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("building %s: %w", name, err)
	}
	return bin, nil
}

// checkJSQ asserts that a one-shot jsq query that fails to parse exits
// non-zero and writes exactly one qlog record, with status error and the
// error jsq printed, and that the interpreted and translated back-ends
// print the same items over data.
func checkJSQ(jsq, dir, data string) error {
	qlogPath := filepath.Join(dir, "jsq.log")
	var stderr strings.Builder
	bad := exec.Command(jsq, "-data", data, "-collection", "smoke", "-qlog", qlogPath, "for $o in")
	bad.Stderr = &stderr
	if err := bad.Run(); err == nil {
		return fmt.Errorf("jsq ran a query that does not parse without an error")
	}
	raw, err := os.ReadFile(qlogPath)
	if err != nil {
		return fmt.Errorf("jsq query log: %w", err)
	}
	lines := strings.FieldsFunc(string(raw), func(r rune) bool { return r == '\n' })
	var rec map[string]any
	if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &rec) != nil {
		return fmt.Errorf("jsq query log holds %d lines, want one JSON record:\n%s", len(lines), raw)
	}
	msg, _ := rec["error"].(string)
	if rec["event"] != "query" || rec["status"] != "error" || msg == "" || !strings.Contains(stderr.String(), msg) {
		return fmt.Errorf("jsq query record %v, want event query, status error and the error jsq printed: %s", rec, stderr.String())
	}
	const query = `for $o in collection("smoke") order by $o.id return {"id": $o.id, "qty": [for $i in $o.items[] return $i.qty]}`
	var out [2]string
	for i, backend := range []string{"translate", "interp"} {
		b, err := exec.Command(jsq, "-data", data, "-collection", "smoke", "-backend", backend, query).Output()
		if err != nil {
			return fmt.Errorf("jsq -backend %s: %w", backend, err)
		}
		out[i] = string(b)
	}
	if out[0] == "" || out[0] != out[1] {
		return fmt.Errorf("jsq back-ends disagree:\ntranslate:\n%sinterp:\n%s", out[0], out[1])
	}
	return nil
}

// checkQlog asserts the query log holds exactly four parseable "query"
// records with the schema jsqd promises, and that the cache-hit flags follow
// their patterns around the mid-run append.
func checkQlog(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("query log: %w", err)
	}
	var records []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		if line == "" {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return fmt.Errorf("query log line is not JSON: %v\n%s", err, line)
		}
		if rec["event"] == "query" {
			records = append(records, rec)
		}
	}
	if len(records) != 4 {
		return fmt.Errorf("query log holds %d query records, want 4:\n%s", len(records), raw)
	}
	for i, rec := range records {
		for _, key := range []string{"trace_id", "fingerprint", "status",
			"cache_hit", "text_cache_hit", "result_cache_hit", "parse_us", "plan_us",
			"sqlgen_us", "exec_us", "total_us", "rows", "mem_peak_bytes",
			"spill_bytes", "typed_cols", "fallback_cols", "disk_reads"} {
			if _, ok := rec[key]; !ok {
				return fmt.Errorf("query record #%d missing %q: %v", i+1, key, rec)
			}
		}
		if rec["status"] != "ok" {
			return fmt.Errorf("query record #%d status = %v, want ok", i+1, rec["status"])
		}
	}
	// Result cache: runs 1 and 3 execute (fresh server, then the appended
	// partition makes the cached rows stale); runs 2 and 4 hit. Plan cache:
	// only run 1 compiles. A plan stays current while its collection is the
	// same table, so the append and its seal leave it valid — and with it
	// the query text's alias of the plan's entry, so only run 1 translates.
	want := map[string][]bool{
		"result_cache_hit": {false, true, false, true},
		"cache_hit":        {false, true, true, true},
		"text_cache_hit":   {false, true, true, true},
	}
	for key, pattern := range want {
		for i, w := range pattern {
			if hit, _ := records[i][key].(bool); hit != w {
				return fmt.Errorf("query record #%d %s = %v, want %v: %v",
					i+1, key, hit, w, records[i])
			}
		}
	}
	// The third run must see the appended document: rows grows from 2 to 3.
	if rows, _ := records[2]["rows"].(float64); rows != 3 {
		return fmt.Errorf("post-append query returned %v rows, want 3: %v", records[2]["rows"], records[2])
	}
	return nil
}

// checkCounterAtLeast asserts /metrics exposes the named counter with at
// least min recorded.
func checkCounterAtLeast(url, name string, min float64) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, name+" ") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return fmt.Errorf("malformed metric line: %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return fmt.Errorf("malformed metric value: %q", line)
		}
		if v < min {
			return fmt.Errorf("%s = %v, want >= %v", name, v, min)
		}
		return nil
	}
	return fmt.Errorf("GET %s: body lacks %s", url, name)
}

// checkGet asserts the URL answers 200 with a body containing want.
func checkGet(url, want string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if !strings.Contains(string(body), want) {
		return fmt.Errorf("GET %s: body lacks %q", url, want)
	}
	return nil
}

func postJSON(url, body string) (int, string, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	out, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return 0, "", err
	}
	return resp.StatusCode, string(out), nil
}

// waitReady polls until the server answers, or the startup budget runs out.
func waitReady(url string) error {
	deadline := time.Now().Add(startupWait)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("jsqd did not become ready within %s", startupWait)
}

// freeAddr reserves an ephemeral localhost port and releases it for the
// server to bind. The tiny claim/reuse window is acceptable for a smoke
// test.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", err
	}
	return addr, nil
}
