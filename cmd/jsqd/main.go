// Command jsqd serves a warehouse over HTTP — the REST interface of the
// paper's system architecture (§III-A1).
//
// Usage:
//
//	jsqd [-addr :8080] [-data events.jsonl -collection adl]
//	     [-qlog query.log] [-slow-query-ms 250] [-trace-out traces.jsonl]
//
// Then:
//
//	curl -s localhost:8080/query -d '{"query": "for $e in collection(\"adl\") return $e.EVENT"}'
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"jsonpark"

	"jsonpark/internal/obsv/qlog"
	"jsonpark/internal/server"
)

// shutdownGrace bounds how long in-flight requests may run after a signal.
const shutdownGrace = 10 * time.Second

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	data := flag.String("data", "", "optional JSON-lines file to preload")
	collection := flag.String("collection", "data", "collection name for -data")
	queryTimeout := flag.Duration("query-timeout", 0, "per-request query execution limit; exceeding it returns a structured 504 (0 = none)")
	memLimit := flag.String("mem-limit", "", "pipeline-breaker memory budget per query, e.g. 512MiB (empty = unlimited; overflow spills to disk)")
	qlogPath := flag.String("qlog", "", "append the structured query log (one JSON line per query) to FILE instead of stderr")
	slowMS := flag.Int64("slow-query-ms", -1, "capture queries slower than this many ms in /debug/slow, logged at warn (0 = every query, negative = off)")
	traceOut := flag.String("trace-out", "", "append every finished trace as a JSON line to FILE")
	dataDir := flag.String("data-dir", "", "persist micro-partitions under DIR and reopen collections found there (empty = in-memory)")
	typedColumns := flag.Bool("typed-columns", true, "shred uniform scalar columns into typed arrays at partition seal (typed expression kernels)")
	cacheEntries := flag.Int("plan-cache-size", 256, "query cache entries; repeated queries skip compilation, and with -result-cache-bytes execution (0 = engine default, negative = off)")
	resultBytes := flag.String("result-cache-bytes", "64MiB", "result cache resident-row byte budget, e.g. 64MiB; repeated queries over unchanged collections skip execution (0 = off)")
	var views []string
	flag.Func("view", "register a materialized view as NAME=JSONIQ_QUERY at startup (repeatable; refreshed incrementally on /views/query)", func(s string) error {
		if !strings.Contains(s, "=") {
			return fmt.Errorf("want NAME=QUERY, got %q", s)
		}
		views = append(views, s)
		return nil
	})
	globalMemLimit := flag.String("global-mem-limit", "", "shared memory pool across all concurrent queries, e.g. 1GiB (empty = no pool; overflow spills to disk)")
	tenantSlots := flag.Int("tenant-slots", 0, "max concurrently admitted queries per tenant (X-Tenant header; 0 = unlimited)")
	admissionTimeout := flag.Duration("admission-timeout", time.Second, "how long a request may queue for admission before being shed with 429")
	flag.Parse()

	var memBytes int64
	if *memLimit != "" {
		var err error
		memBytes, err = jsonpark.ParseByteSize(*memLimit)
		if err != nil {
			log.Fatal(err)
		}
	}
	var globalMemBytes int64
	if *globalMemLimit != "" {
		var err error
		globalMemBytes, err = jsonpark.ParseByteSize(*globalMemLimit)
		if err != nil {
			log.Fatal(err)
		}
	}
	var resultByteBudget int64
	if *resultBytes != "" {
		var err error
		resultByteBudget, err = jsonpark.ParseByteSize(*resultBytes)
		if err != nil {
			log.Fatal(err)
		}
	}

	opts := []jsonpark.OpenOption{
		jsonpark.WithMemLimit(memBytes),
		jsonpark.WithSlowQueryMillis(*slowMS),
		jsonpark.WithDataDir(*dataDir),
		jsonpark.WithTypedColumns(*typedColumns),
		jsonpark.WithPlanCacheSize(*cacheEntries),
		jsonpark.WithResultCacheBytes(resultByteBudget),
	}
	if globalMemBytes > 0 || *tenantSlots > 0 {
		opts = append(opts, jsonpark.WithGovernor(jsonpark.NewGovernor(jsonpark.GovernorConfig{
			MemLimit:     globalMemBytes,
			TenantSlots:  *tenantSlots,
			QueueTimeout: *admissionTimeout,
		})))
	}
	if *traceOut != "" {
		f, err := appendFile(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer func() { _ = f.Close() }()
		opts = append(opts, jsonpark.WithTraceExport(f))
	}
	w := jsonpark.Open(opts...)
	if *data != "" {
		if err := preload(w, *collection, *data); err != nil {
			log.Fatal(err)
		}
	}
	if *dataDir != "" {
		// Seal preloaded rows to disk before serving.
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
	}
	for _, v := range views {
		name, query, _ := strings.Cut(v, "=")
		if err := w.CreateView(name, query); err != nil {
			log.Fatalf("-view %s: %v", name, err)
		}
		log.Printf("registered materialized view %q", name)
	}

	sopts := []server.Option{server.WithQueryTimeout(*queryTimeout)}
	if *qlogPath != "" {
		f, err := appendFile(*qlogPath)
		if err != nil {
			log.Fatal(err)
		}
		defer func() { _ = f.Close() }()
		sopts = append(sopts, server.WithQueryLog(qlog.New(f)))
	}
	srv := &http.Server{Addr: *addr, Handler: server.New(w, sopts...)}
	errc := make(chan error, 1)
	go func() {
		log.Printf("jsqd listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("jsqd shutting down (grace %s)", shutdownGrace)
	sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("jsqd shutdown: %v", err)
	}
	if *dataDir != "" {
		// Seal rows loaded over HTTP so they survive the restart.
		if err := w.Flush(); err != nil {
			log.Printf("jsqd flush: %v", err)
		}
	}
	logFinalMetrics(w)
}

// appendFile opens (creating if needed) a log sink for append-only writes.
func appendFile(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// logFinalMetrics writes the lifetime metrics snapshot so a scrape gap at
// shutdown loses nothing.
func logFinalMetrics(w *jsonpark.Warehouse) {
	var sb strings.Builder
	w.Observer().Registry.Expose(&sb)
	log.Printf("jsqd final metrics snapshot:\n%s", sb.String())
}

func preload(w *jsonpark.Warehouse, collection, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var docs []jsonpark.Value
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := jsonpark.ParseJSON(line)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, v)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	seen := map[string]bool{}
	var cols []string
	for _, d := range docs {
		for _, k := range d.AsObject().Keys() {
			if !seen[k] {
				seen[k] = true
				cols = append(cols, k)
			}
		}
	}
	sort.Strings(cols)
	if err := w.CreateCollection(collection, cols); err != nil {
		return err
	}
	for _, d := range docs {
		if err := w.LoadObject(collection, d); err != nil {
			return err
		}
	}
	log.Printf("loaded %d documents into %q (columns: %v)", len(docs), collection, cols)
	return nil
}
