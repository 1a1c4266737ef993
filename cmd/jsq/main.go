// Command jsq runs JSONiq queries against JSON-lines data, mirroring the
// paper's client workflow: the query is translated into one native SQL
// string and executed by the embedded columnar engine, or interpreted by
// the baseline runtime over the documents read from -data or -demo, for
// comparison.
//
// Usage:
//
//	jsq -data events.jsonl -collection adl [-columns EVENT,MET,...] 'for $e in ...'
//	jsq -data events.jsonl -sql-only 'for $e in ...'      # print generated SQL
//	jsq -data events.jsonl -explain '...'                 # print engine plan
//	jsq -data events.jsonl -explain-analyze '...'         # run + per-operator stats
//	jsq -demo '...'                                       # tiny built-in dataset
//	echo 'for $e in ...' | jsq -data events.jsonl         # query from stdin
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"jsonpark"

	"jsonpark/internal/obsv/qlog"
)

func main() {
	data := flag.String("data", "", "JSON-lines input file (one object per line)")
	collection := flag.String("collection", "data", "collection name for the input")
	columns := flag.String("columns", "", "staged columns (default: union of top-level fields)")
	backend := flag.String("backend", "translate", "translate | interp")
	strategy := flag.String("strategy", "keep-flag", "nested-query strategy: keep-flag | join | auto")
	sqlOnly := flag.Bool("sql-only", false, "print the generated SQL and exit")
	explain := flag.Bool("explain", false, "print the optimized engine plan and exit")
	explainAnalyze := flag.Bool("explain-analyze", false, "execute and print the plan annotated with per-operator rows, wall time and scan stats")
	metrics := flag.Bool("metrics", false, "print execution metrics")
	demo := flag.Bool("demo", false, "load a tiny built-in orders dataset")
	repl := flag.Bool("repl", false, "interactive mode: queries end with a ';' line")
	batchSize := flag.Int("batch-size", 0, "rows per vector batch (0 = engine default, 1024)")
	parallelism := flag.Int("parallelism", 0, "workers for parallel scans, nested pipelines and aggregation (0 = NumCPU, 1 = sequential)")
	memLimit := flag.String("mem-limit", "", "pipeline-breaker memory budget per query, e.g. 64KiB or 512MiB (empty = unlimited; overflow spills to disk)")
	timeout := flag.Duration("timeout", 0, "per-query execution time limit, e.g. 30s (0 = none)")
	qlogPath := flag.String("qlog", "", "append a structured query-log JSON line per query to FILE (- = stderr)")
	slowMS := flag.Int64("slow-query-ms", -1, "retain span tree + plan snapshot for queries slower than this many ms (0 = every query, negative = off)")
	traceOut := flag.String("trace-out", "", "append every finished trace as a JSON line to FILE")
	dataDir := flag.String("data-dir", "", "persist micro-partitions under DIR and reopen collections found there (empty = in-memory)")
	planCacheSize := flag.Int("plan-cache-size", 0, "prepared-plan cache entries; repeated queries (e.g. in -repl) skip compilation (0 = engine default, negative = off)")
	flag.Parse()

	var memBytes int64
	if *memLimit != "" {
		var err error
		memBytes, err = jsonpark.ParseByteSize(*memLimit)
		if err != nil {
			fatal(err)
		}
	}

	openOpts := []jsonpark.OpenOption{
		jsonpark.WithBatchSize(*batchSize),
		jsonpark.WithParallelism(*parallelism),
		jsonpark.WithMemLimit(memBytes),
		jsonpark.WithSlowQueryMillis(*slowMS),
		jsonpark.WithDataDir(*dataDir),
		jsonpark.WithPlanCacheSize(*planCacheSize),
	}
	if *traceOut != "" {
		f, err := appendFile(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer func() { _ = f.Close() }()
		openOpts = append(openOpts, jsonpark.WithTraceExport(f))
	}
	var qlogger *qlog.Logger
	if *qlogPath == "-" {
		qlogger = qlog.New(os.Stderr)
	} else if *qlogPath != "" {
		f, err := appendFile(*qlogPath)
		if err != nil {
			fatal(err)
		}
		defer func() { _ = f.Close() }()
		qlogger = qlog.New(f)
	}

	w := jsonpark.Open(openOpts...)
	// docs holds what was loaded from -demo or -data, the documents
	// -backend interp runs over.
	var docs map[string][]jsonpark.Value
	switch {
	case *demo:
		docs = loadDemo(w)
	case *data != "":
		loaded, err := loadJSONL(w, *collection, *data, *columns)
		if err != nil {
			fatal(err)
		}
		docs = map[string][]jsonpark.Value{*collection: loaded}
	case *dataDir != "":
		// Persistent warehouse with no fresh input: query what's on disk.
	default:
		fatal(fmt.Errorf("provide -data FILE, -demo, or -data-dir DIR"))
	}
	if *dataDir != "" {
		// Seal freshly loaded rows so they reach disk before any querying.
		if err := w.Flush(); err != nil {
			fatal(err)
		}
	}

	strat := jsonpark.StrategyKeepFlag
	switch *strategy {
	case "join":
		strat = jsonpark.StrategyJoin
	case "auto":
		strat = jsonpark.StrategyAuto
	case "keep-flag":
	default:
		fatal(fmt.Errorf("unknown -strategy %q", *strategy))
	}

	if *repl {
		runREPL(w, qlogger, strat, *timeout)
		return
	}

	// One-shot execution: Ctrl-C (and the optional -timeout) cancels the
	// running query; workers exit promptly and the error says which tripped.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stopSig()
	if *timeout > 0 {
		var cancelTo context.CancelFunc
		ctx, cancelTo = context.WithTimeout(ctx, *timeout)
		defer cancelTo()
	}

	query := strings.Join(flag.Args(), " ")
	if strings.TrimSpace(query) == "" {
		raw, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(err)
		}
		query = string(raw)
	}
	if strings.TrimSpace(query) == "" {
		fatal(fmt.Errorf("no query given (argument or stdin)"))
	}

	if *backend == "interp" {
		if docs == nil {
			fatal(fmt.Errorf("-backend interp runs over the documents of -data FILE or -demo; give one"))
		}
		items, err := jsonpark.Interpret(query, docs)
		if err != nil {
			fatal(err)
		}
		for _, it := range items {
			fmt.Println(it.JSON())
		}
		return
	}
	if *backend != "translate" {
		fatal(fmt.Errorf("unknown -backend %q", *backend))
	}

	if *sqlOnly || *explain {
		sql, err := w.Translate(query, jsonpark.WithStrategy(strat))
		if err != nil {
			fatal(err)
		}
		if *sqlOnly {
			fmt.Println(sql)
			return
		}
		plan, err := w.ExplainSQL(sql)
		if err != nil {
			fatal(err)
		}
		fmt.Print(plan)
		return
	}
	if *explainAnalyze {
		rep, err := w.QueryTraced(query, jsonpark.WithStrategy(strat), jsonpark.WithAnalyze(), jsonpark.WithContext(ctx))
		qlogger.LogQuery(rep.QueryLogRecord())
		if err != nil {
			fatal(describeCancel(err, *timeout))
		}
		m := rep.Result.Metrics
		fmt.Printf("-- trace %s strategy=%s rows=%d compile=%s exec=%s\n",
			rep.TraceID, rep.Strategy, m.RowsReturned, m.CompileTime, m.ExecTime)
		fmt.Print(rep.RenderAnalyze())
		fmt.Println("-- stages")
		fmt.Print(rep.Trace.Root.Render())
		return
	}
	rep, err := w.QueryTraced(query, jsonpark.WithStrategy(strat), jsonpark.WithContext(ctx))
	qlogger.LogQuery(rep.QueryLogRecord())
	if err != nil {
		fatal(describeCancel(err, *timeout))
	}
	res := rep.Result
	for _, row := range res.Rows {
		fmt.Println(row[0].JSON())
	}
	if *metrics {
		m := res.Metrics
		fmt.Fprintf(os.Stderr, "compile=%s exec=%s scanned=%d bytes partitions=%d/%d pruned rows=%d\n",
			m.CompileTime, m.ExecTime, m.BytesScanned,
			m.PartitionsPruned, m.PartitionsTotal, m.RowsReturned)
	}
}

// describeCancel rewrites context-cancellation errors into operator-facing
// messages; other errors pass through.
func describeCancel(err error, timeout time.Duration) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("query exceeded -timeout %s", timeout)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("query interrupted")
	}
	return err
}

// runREPL reads queries interactively — the REPL client of the paper's
// §III-A1 interface list. A query is submitted with a line containing only
// ";"; special commands: ".sql" toggles SQL echo, ".quit" exits. Ctrl-C
// during execution aborts the running query, not the REPL: the signal
// context lives only for the duration of one w.Query call.
func runREPL(w *jsonpark.Warehouse, qlogger *qlog.Logger, strat jsonpark.Strategy, timeout time.Duration) {
	fmt.Println("jsonpark REPL — end queries with a ';' line, .sql toggles SQL echo, .quit exits (Ctrl-C aborts a running query)")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var buf strings.Builder
	showSQL := false
	prompt := func() { fmt.Print("jsq> ") }
	prompt()
	for sc.Scan() {
		line := sc.Text()
		switch strings.TrimSpace(line) {
		case ".quit", ".exit":
			return
		case ".sql":
			showSQL = !showSQL
			fmt.Printf("sql echo: %v\n", showSQL)
			prompt()
			continue
		case ";":
			query := buf.String()
			buf.Reset()
			if strings.TrimSpace(query) == "" {
				prompt()
				continue
			}
			rep, err := replQuery(w, qlogger, query, strat, timeout)
			if showSQL && rep.SQL != "" {
				fmt.Println("--", rep.SQL)
			}
			if err != nil {
				fmt.Println("error:", describeCancel(err, timeout))
				prompt()
				continue
			}
			res := rep.Result
			for _, row := range res.Rows {
				fmt.Println(row[0].JSON())
			}
			fmt.Printf("(%d rows, compile %v, exec %v)\n",
				len(res.Rows), res.Metrics.CompileTime, res.Metrics.ExecTime)
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
	}
	// A read error on stdin (as opposed to clean EOF) should not look like a
	// normal .quit.
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "jsq: reading input:", err)
	}
}

// replQuery executes one REPL query under a per-query signal context, so an
// interrupt cancels the query and control returns to the prompt. The report
// comes back on failure too, with the SQL when the query translated.
func replQuery(w *jsonpark.Warehouse, qlogger *qlog.Logger, query string, strat jsonpark.Strategy, timeout time.Duration) (*jsonpark.QueryReport, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	rep, err := w.QueryTraced(query, jsonpark.WithStrategy(strat), jsonpark.WithContext(ctx))
	qlogger.LogQuery(rep.QueryLogRecord())
	return rep, err
}

// appendFile opens (creating if needed) a log sink for append-only writes.
func appendFile(path string) (*os.File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// loadJSONL stages a JSON-lines file. Without -columns, a first pass
// collects the union of top-level field names (schema inference on load,
// keeping the engine itself schema-oblivious). It returns the documents it
// loaded.
func loadJSONL(w *jsonpark.Warehouse, collection, path, columns string) ([]jsonpark.Value, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
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
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		docs = append(docs, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var cols []string
	if columns != "" {
		cols = strings.Split(columns, ",")
	} else {
		seen := map[string]bool{}
		for _, d := range docs {
			for _, k := range d.AsObject().Keys() {
				if !seen[k] {
					seen[k] = true
					cols = append(cols, k)
				}
			}
		}
		sort.Strings(cols)
	}
	if err := w.CreateCollection(collection, cols); err != nil {
		return nil, err
	}
	for _, d := range docs {
		if err := w.LoadObject(collection, d); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return docs, nil
}

// loadDemo stages the built-in orders collection and returns its documents.
func loadDemo(w *jsonpark.Warehouse) map[string][]jsonpark.Value {
	if err := w.CreateCollection("orders", []string{"id", "customer", "items"}); err != nil {
		fatal(err)
	}
	var orders []jsonpark.Value
	for _, d := range []string{
		`{"id": 1, "customer": "ada", "items": [{"sku": "apple", "qty": 2, "price": 1.5}]}`,
		`{"id": 2, "customer": "bob", "items": []}`,
		`{"id": 3, "customer": "ada", "items": [{"sku": "plum", "qty": 5, "price": 0.5}, {"sku": "fig", "qty": 1, "price": 3.0}]}`,
	} {
		v, err := jsonpark.ParseJSON(d)
		if err != nil {
			fatal(err)
		}
		if err := w.LoadObject("orders", v); err != nil {
			fatal(err)
		}
		orders = append(orders, v)
	}
	return map[string][]jsonpark.Value{"orders": orders}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "jsq:", err)
	os.Exit(1)
}
