package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"time"

	"jsonpark/internal/engine"
	"jsonpark/internal/hepdata"
	"jsonpark/internal/variant"
)

// Shape of the serve_ingest traffic: one session in lock-step with a clock.
// The window is cut into 100 ticks (150 ms each in a 15 s run). When a tick is
// due the session posts one /load batch of 200 events, then refreshes a
// dashboard: the MET histogram of all history and of the last 10, 5 and 2
// batches over /query, and of all history again through a materialized view.
// Until the next tick is due it keeps polling the dashboard, as a live one
// does. A shorter window shortens the polling, never the 100 x 200 events.
// Every answer is checked exactly; the latencies reported are those of the
// refresh after a load. The all-history panel is the same text every tick: it
// pays the seal of the batch, the invalidation of its cached result and
// execution over one more partition. A recent-history panel is a new text
// every tick (its window has moved): it pays a plan-cache hit under a new
// literal, zone-map pruning of a partition list that has grown by one, and a
// short scan. The polls in between hit the result cache; that path is
// serve_mix's business.
//
// Three things here are for the steadiness of the numbers (README.md has the
// measurements). The loads and the reads are not concurrent: jsqd seals the
// buffered rows whenever a query takes a snapshot, so a reader racing a
// writer splits each batch into as many partitions as it happens to ask
// questions during the load, and every later query pays for them; in
// lock-step a batch is one partition and tick t reads t+1 of them. The
// session never sleeps: one that idles between ticks finds the CPUs clocked
// down or cold when it wakes, and measures 5 ms in one run and 10 ms in the
// next. And only one panel in four scans all history: a scan of 20 000
// nested events is bound by the memory system, the host's other tenants slow
// that down by a quarter for minutes on end, and the machine-speed loop
// (machine.go) cannot see it; four such panels moved latency_p50_ms by 29%
// between two sets of ten runs of the same code.
const ingestView = "met_hist"

// ingestWindows are the dashboard's panels: how many of the latest batches
// each one covers, 0 for all history.
var ingestWindows = []int{0, 10, 5, 2}

// eventHistQuery is ADL q1 (MET histogram, 5 GeV bins) over the events from
// the given event number on. EVENT is a top-level scalar, so its zone maps
// prune the partitions before it.
func eventHistQuery(from int64) string {
	return fmt.Sprintf(`
for $e in collection("adl")
where $e.EVENT ge %d
group by $bin := floor($e.MET.pt div 5.0) * 5.0
order by $bin
return {"bin": $bin, "count": count($e)}
`, from)
}

type ingestSizes struct{ batches, batchDocs, restarts int }

func ingestSizesFor(smoke bool) ingestSizes {
	if smoke {
		return ingestSizes{batches: 4, batchDocs: 20, restarts: 2}
	}
	return ingestSizes{batches: 100, batchDocs: 200, restarts: 5}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// ingestState is serve_ingest set up: the documents and request bodies, and
// a jsqd on an empty data dir with the collection and the view registered.
type ingestState struct {
	*served
	events    []variant.Value
	pts       []float64  // the events' MET.pt, for the direct computation
	loads     [][]byte   // per tick
	panels    [][][]byte // per tick and panel: the dashboard once that tick's batch is in
	viewBody  []byte
	jsonBytes int64
}

// panelFrom is the index of the first event panel i covers once acked events
// are in.
func panelFrom(sz ingestSizes, i, acked int) int {
	if ingestWindows[i] == 0 {
		return 0
	}
	return max(0, acked-ingestWindows[i]*sz.batchDocs)
}

func setUpIngest(cfg config, sz ingestSizes, histJSONiq string) (*ingestState, error) {
	st := &ingestState{events: hepdata.Events(cfg.seed, sz.batches*sz.batchDocs)}
	st.pts = metPts(st.events)
	for t := 0; t < sz.batches; t++ {
		body, err := json.Marshal(loadBody("adl", st.events[t*sz.batchDocs:(t+1)*sz.batchDocs]))
		if err != nil {
			return nil, err
		}
		st.loads = append(st.loads, body)
		st.jsonBytes += int64(len(body))
	}
	first := st.events[0].Field("EVENT").AsInt() // hepdata numbers events consecutively
	for t := 1; t <= sz.batches; t++ {
		var bodies [][]byte
		for i := range ingestWindows {
			// Strings cannot fail to marshal.
			body, _ := json.Marshal(map[string]string{"query": eventHistQuery(first + int64(panelFrom(sz, i, t*sz.batchDocs)))})
			bodies = append(bodies, body)
		}
		st.panels = append(st.panels, bodies)
	}
	st.viewBody, _ = json.Marshal(map[string]string{"name": ingestView})

	var err error
	if st.served, err = serve(cfg, true); err != nil {
		return nil, err
	}
	if _, err = st.h.mustPost("/collections", map[string]any{"name": "adl", "columns": hepdata.Columns()}); err == nil {
		_, err = st.h.mustPost("/views", map[string]string{"name": ingestView, "query": histJSONiq})
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// runServeIngest is the writes-beside-reads workload: jsqd on an empty data
// dir, ticks of load-then-dashboard, then a clean shutdown and timed restarts
// on the populated directory.
func runServeIngest(cfg config, r *runResult) error {
	sz := ingestSizesFor(cfg.smoke)
	hist := adlQueries()[0]
	ticks := sz.batches
	r.Sizes["batches"], r.Sizes["batch_docs"], r.Sizes["restarts"] = float64(ticks), float64(sz.batchDocs), float64(sz.restarts)
	st, err := setUpRepeatedly(cfg, r, func() (*ingestState, error) { return setUpIngest(cfg, sz, hist.JSONiq) }, (*ingestState).close)
	if err != nil {
		return err
	}
	defer st.close()
	h := st.h // replaced by a new connection at every restart

	before, err := scrape(h)
	if err != nil {
		return err
	}
	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	// ask posts one read and holds the answer to the direct computation,
	// returning the latency of a correct answer.
	ask := func(name, path string, body []byte, want uint64, tick int) (time.Duration, *queryResponse, int, bool) {
		id := rec.begin(span{Name: name, Path: "http", Pass: tick})
		status, raw, d, err := h.post(path, body)
		rec.end(id)
		r.Attempted++
		var resp *queryResponse
		var items []variant.Value
		if err == nil {
			resp, items, err = decodeResponse(status, raw)
		}
		if err == nil && canonValues(items) != want {
			err = fmt.Errorf("histogram differs from the direct computation")
		}
		if err != nil {
			r.fail("tick %d %s: %v", tick, path, err)
			return 0, nil, 0, false
		}
		return d, resp, len(raw), true
	}
	perPanel := make([][]float64, len(ingestWindows))
	var lat, viewLat, loadLat, overhead, respBytes []float64
	var busy time.Duration // time spent waiting for the refreshes' answers
	acked := 0
	want := make([]uint64, len(ingestWindows)) // each panel's answer over the events acknowledged so far
	window := time.Duration(cfg.seconds * float64(time.Second))
	sustainedRSS := watchRSS(st.srv.pid())
	start := time.Now()
	for t, body := range st.loads {
		due := start.Add(time.Duration(t) * window / time.Duration(ticks))
		for i := 0; time.Now().Before(due); i++ { // t > 0: the first batch is due at once
			ask("http.poll", "/query", st.panels[t-1][i%len(ingestWindows)], want[i%len(ingestWindows)], t)
		}
		id := rec.begin(span{Name: "http.load", Path: "http", Pass: t})
		status, raw, _, err := h.post("/load", body)
		rec.end(id)
		r.Attempted++
		if err != nil || status != 200 {
			r.fail("tick %d /load: %d %.100s %v", t, status, raw, err)
			continue
		}
		acked += sz.batchDocs
		// The clock is an open loop: a load is timed from when it was due.
		loadLat = append(loadLat, ms(time.Since(due)))
		for i := range ingestWindows {
			want[i] = metHistAnswer(st.pts[panelFrom(sz, i, acked):acked], 0) // every MET.pt is above 0
		}
		for i := range ingestWindows {
			if d, resp, size, ok := ask("http.query", "/query", st.panels[t][i], want[i], t); ok {
				busy += d
				lat = append(lat, ms(d))
				perPanel[i] = append(perPanel[i], ms(d))
				overhead = append(overhead, us(d)-float64(resp.Metrics.CompileUS+resp.Metrics.ExecUS))
				respBytes = append(respBytes, float64(size))
			}
		}
		if d, _, _, ok := ask("http.view", "/views/query", st.viewBody, want[0], t); ok { // panel 0 is all history too
			busy += d
			viewLat = append(viewLat, ms(d))
		}
	}
	elapsed := time.Since(start)
	speed := r.windowSpeed(start, start.Add(elapsed))
	r.set("rss_p95_mb", sustainedRSS(), 1)
	after, err := scrape(h)
	if err != nil {
		return err
	}
	st.srv.stop() // jsqd flushes its data dir on SIGTERM
	onDisk, err := dirBytes(st.dataDir())
	if err != nil {
		return err
	}

	// Restart on the populated directory: exec to first correct answer.
	var reopen []float64
	for i := 0; i < sz.restarts; i++ {
		t0 := time.Now()
		again, err := startJsqd(cfg, st.dir, "-data-dir", st.dataDir())
		if err != nil {
			return err
		}
		h = newHTTPClient(again.url)
		if _, _, _, ok := ask("http.query", "/query", st.panels[ticks-1][0], want[0], ticks+i); ok {
			reopen = append(reopen, ms(time.Since(t0)))
		}
		again.stop()
	}

	// The clock fixes how many answers there are per second of wall time, so
	// throughput is per second spent waiting for them: the rate this session
	// would reach without the clock.
	answers := len(lat) + len(viewLat)
	r.set("throughput_qps", float64(answers)/busy.Seconds()/speed, answers)
	// As in the library workloads, this session repeats a fixed set of
	// queries, so each panel counts once, at its median over the ticks:
	// latency_p50_ms is the typical panel and latency_slow_ms the slowest, the
	// all-history one, which is also the first read after each load. (One tick in eight is slow as a whole, three
	// or four times over; a pooled p95 falls among those few samples and swings
	// by a quarter between runs. They weigh on throughput_qps, which is gated,
	// and show in the traced run's latency_tail_ms, which is not.)
	var panelLat []float64
	for _, xs := range perPanel {
		panelLat = append(panelLat, median(xs))
	}
	r.set("latency_p50_ms", median(panelLat)*speed, len(lat))
	r.set("latency_slow_ms", slices.Max(panelLat)*speed, len(lat))
	setTail(r, lat)
	r.set("ingest_docs_per_s", float64(acked)/elapsed.Seconds(), ticks)
	r.set("reopen_ms", median(reopen), len(reopen))
	r.set("disk_bytes_per_json_byte", float64(onDisk)/float64(st.jsonBytes), 1)
	r.set("engine.view_query_ms", median(viewLat), len(viewLat))
	r.set("server.load_ms_per_batch", median(loadLat), len(loadLat))
	r.set("server.overhead_us", median(overhead), len(overhead))
	r.set("server.response_bytes", median(respBytes), len(respBytes))
	cacheMetrics(r, before, after)
	if !cfg.trace {
		return nil
	}
	r.Spans = rec.spans
	return storageLayer(filepath.Join(st.dir, "library"), st.events, hist.SQL, r)
}

// storageLayer times the storage calls on a library copy of the ingested
// documents: append and seal in memory (shredding without I/O), then append
// into a data dir and flush its tail, then reopen that dir and read it cold.
func storageLayer(dir string, events []variant.Value, histSQL string, r *runResult) error {
	adlTable := []table{{"adl", hepdata.Columns(), events}}
	appendDur, sealDur, docs, err := loadTables(engine.New(), adlTable)
	if err != nil {
		return err
	}
	r.set("storage.append_us_per_doc", us(appendDur)/float64(docs), docs)
	r.set("storage.seal_ms", ms(sealDur), 1)
	perDoc, n, err := parseCost(events)
	if err != nil {
		return err
	}
	r.set("variant.parse_us_per_doc", perDoc, n)

	eng := engine.New(engine.WithDataDir(dir))
	tab, err := eng.Catalog().CreateTable("adl", hepdata.Columns())
	if err != nil {
		return err
	}
	for _, d := range events {
		if err := tab.AppendObject(d); err != nil {
			return err
		}
	}
	t0 := time.Now()
	if err := eng.Catalog().Flush(); err != nil {
		return err
	}
	r.set("storage.flush_ms", ms(time.Since(t0)), 1)
	r.set("storage.partitions", float64(len(tab.Partitions())), 1)
	onDisk, err := dirBytes(dir)
	if err != nil {
		return err
	}
	r.set("storage.disk_bytes", float64(onDisk), 1)

	t0 = time.Now()
	reopened := engine.New(engine.WithDataDir(dir), engine.WithPlanCacheSize(-1))
	if _, err := reopened.Catalog().Table("adl"); err != nil {
		return err
	}
	r.set("storage.reopen_open_ms", ms(time.Since(t0)), 1)
	t0 = time.Now()
	cold, err := reopened.Query(histSQL)
	if err != nil {
		return err
	}
	coldD := time.Since(t0)
	t0 = time.Now()
	if _, err := reopened.Query(histSQL); err != nil {
		return err
	}
	r.set("storage.cold_read_ms", ms(coldD-time.Since(t0)), 1)
	r.set("storage.disk_reads", float64(cold.Metrics.DiskReads), 1)
	return nil
}
