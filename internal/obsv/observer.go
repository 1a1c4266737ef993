package obsv

import "time"

// Observer bundles the tracer and registry one warehouse (or server) shares
// across queries, pre-registering the standard query-lifecycle metrics:
// query counts by status, per-stage latency histograms (fed from the span
// tree, so the §V translation/compile/execution breakdown is a /metrics
// scrape away), and cumulative scan accounting.
type Observer struct {
	Tracer   *Tracer
	Registry *Registry
	// Slow retains full captures (span tree + EXPLAIN ANALYZE) of queries
	// beyond the configured slow-query threshold, for GET /debug/slow.
	Slow *SlowRing

	queriesTotal     *CounterVec
	stageSeconds     *HistogramVec
	phaseSeconds     *HistogramVec
	statusSeconds    *HistogramVec
	querySeconds     *Histogram
	queriesCancelled *Counter
	counters         [len(counterSeries)]*Counter
	runtime          *RuntimeSampler
}

// counterSeries lists the per-query counters /metrics sums across queries:
// each series' name and help, and the field of Counters it adds.
var counterSeries = [...]struct {
	name, help string
	value      func(*Counters) int64
}{
	{"jsonpark_bytes_scanned_total", "Cumulative bytes scanned across all queries.",
		func(c *Counters) int64 { return c.BytesScanned }},
	{"jsonpark_rows_returned_total", "Cumulative result rows returned across all queries.",
		func(c *Counters) int64 { return c.RowsReturned }},
	{"jsonpark_partitions_considered_total", "Cumulative micro-partitions considered by scans.",
		func(c *Counters) int64 { return c.PartitionsTotal }},
	{"jsonpark_partitions_pruned_total", "Cumulative micro-partitions pruned via zone maps.",
		func(c *Counters) int64 { return c.PartitionsPruned }},
	{"jsonpark_parallel_breakers_total", "Cumulative pipeline breakers (fanned-out hash aggregates) executed with parallel phases.",
		func(c *Counters) int64 { return c.ParallelBreakers }},
	{"jsonpark_spill_bytes_total", "Cumulative bytes written to spill runs by memory-governed pipeline breakers.",
		func(c *Counters) int64 { return c.SpillBytes }},
	{"jsonpark_typed_columns_total", "Cumulative typed vectors (shredded columns, typed expression results) read by typed kernels.",
		func(c *Counters) int64 { return c.TypedCols }},
	{"jsonpark_fallback_columns_total", "Cumulative typed vectors converted back to variants by expressions.",
		func(c *Counters) int64 { return c.FallbackCols }},
	{"jsonpark_disk_partition_reads_total", "Cumulative micro-partitions cold-loaded from a persistent data directory.",
		func(c *Counters) int64 { return c.DiskReads }},
	{"jsonpark_text_cache_hits_total", "Queries whose plan the query cache found under their source text (JSONiq frontend skipped).",
		func(c *Counters) int64 {
			if c.TextCacheHit {
				return 1
			}
			return 0
		}},
}

// NewObserver builds an observer with the standard metric set registered.
func NewObserver() *Observer {
	r := NewRegistry()
	o := &Observer{
		Tracer:   NewTracer(0),
		Registry: r,
		Slow:     NewSlowRing(0),
		queriesTotal: r.CounterVec("jsonpark_queries_total",
			"Queries processed, by final status.", "status"),
		stageSeconds: r.HistogramVec("jsonpark_query_stage_seconds",
			"Per-stage latency of the query lifecycle, from span durations.", nil, "stage"),
		phaseSeconds: r.HistogramVec("jsonpark_query_phase_seconds",
			"Latency rolled up into the four coarse phases (parse, plan, sqlgen, exec).", nil, "phase"),
		statusSeconds: r.HistogramVec("jsonpark_query_status_seconds",
			"End-to-end query latency, by final status.", nil, "status"),
		querySeconds: r.Histogram("jsonpark_query_seconds",
			"End-to-end query latency (translate + compile + execute).", nil),
		queriesCancelled: r.Counter("jsonpark_queries_cancelled_total",
			"Queries aborted by context cancellation or deadline."),
	}
	for i, s := range counterSeries {
		o.counters[i] = r.Counter(s.name, s.help)
	}
	o.runtime = NewRuntimeSampler(r)
	return o
}

// RegisterPlanCacheStats exposes the engine's prepared-plan cache counters
// as jsonpark_plan_cache_{hits,misses,evictions}_total and the current
// entry count as jsonpark_plan_cache_entries. stats must be safe for
// concurrent use; call at most once per observer.
func (o *Observer) RegisterPlanCacheStats(stats func() (hits, misses, evictions, entries int64)) {
	if o == nil {
		return
	}
	o.Registry.CounterFunc("jsonpark_plan_cache_hits_total",
		"Prepared-plan cache hits (compile phase skipped).", func() float64 {
			h, _, _, _ := stats()
			return float64(h)
		})
	o.Registry.CounterFunc("jsonpark_plan_cache_misses_total",
		"Prepared-plan cache misses (full compile).", func() float64 {
			_, m, _, _ := stats()
			return float64(m)
		})
	o.Registry.CounterFunc("jsonpark_plan_cache_evictions_total",
		"Prepared-plan cache entries evicted by the LRU bound.", func() float64 {
			_, _, e, _ := stats()
			return float64(e)
		})
	o.Registry.GaugeFunc("jsonpark_plan_cache_entries",
		"Prepared-plan cache resident entries.", func() float64 {
			_, _, _, n := stats()
			return float64(n)
		})
}

// RegisterResultCacheStats exposes the engine's partition-versioned result
// cache counters as jsonpark_result_cache_{hits,misses,evictions,
// invalidations}_total plus resident entries/bytes gauges. stats must be
// safe for concurrent use; call at most once per observer.
func (o *Observer) RegisterResultCacheStats(stats func() (hits, misses, evictions, invalidations, entries, bytes int64)) {
	if o == nil {
		return
	}
	o.Registry.CounterFunc("jsonpark_result_cache_hits_total",
		"Result cache hits (execution skipped).", func() float64 {
			h, _, _, _, _, _ := stats()
			return float64(h)
		})
	o.Registry.CounterFunc("jsonpark_result_cache_misses_total",
		"Result cache misses (query executed).", func() float64 {
			_, m, _, _, _, _ := stats()
			return float64(m)
		})
	o.Registry.CounterFunc("jsonpark_result_cache_evictions_total",
		"Result cache entries evicted by the LRU entry or byte bound.", func() float64 {
			_, _, e, _, _, _ := stats()
			return float64(e)
		})
	o.Registry.CounterFunc("jsonpark_result_cache_invalidations_total",
		"Result cache entries dropped by partition-set version advance (appends, DDL).", func() float64 {
			_, _, _, i, _, _ := stats()
			return float64(i)
		})
	o.Registry.GaugeFunc("jsonpark_result_cache_entries",
		"Result cache resident entries.", func() float64 {
			_, _, _, _, n, _ := stats()
			return float64(n)
		})
	o.Registry.GaugeFunc("jsonpark_result_cache_bytes",
		"Result cache resident row bytes.", func() float64 {
			_, _, _, _, _, b := stats()
			return float64(b)
		})
}

// GovernorStats is the subset of a governor snapshot the metric set samples.
type GovernorStats struct {
	MemUsedBytes  int64
	MemLimitBytes int64
	Active        int64
	Waiting       int64
	AdmittedTotal int64
	ShedTotal     int64
}

// RegisterGovernorStats exposes the resource governor's admission and
// shared-pool state. snap must be safe for concurrent use; call at most
// once per observer.
func (o *Observer) RegisterGovernorStats(snap func() GovernorStats) {
	if o == nil {
		return
	}
	o.Registry.CounterFunc("jsonpark_admission_admitted_total",
		"Queries admitted by the resource governor.", func() float64 {
			return float64(snap().AdmittedTotal)
		})
	o.Registry.CounterFunc("jsonpark_admission_shed_total",
		"Queries shed at admission (HTTP 429).", func() float64 {
			return float64(snap().ShedTotal)
		})
	o.Registry.GaugeFunc("jsonpark_admission_active",
		"Queries currently admitted and running.", func() float64 {
			return float64(snap().Active)
		})
	o.Registry.GaugeFunc("jsonpark_admission_waiting",
		"Queries currently queued at admission.", func() float64 {
			return float64(snap().Waiting)
		})
	o.Registry.GaugeFunc("jsonpark_global_mem_used_bytes",
		"Bytes currently drawn from the governor's shared memory pool.", func() float64 {
			return float64(snap().MemUsedBytes)
		})
	o.Registry.GaugeFunc("jsonpark_global_mem_limit_bytes",
		"Configured size of the governor's shared memory pool.", func() float64 {
			return float64(snap().MemLimitBytes)
		})
}

// CountShed folds one admission-shed request into the status counters.
// Shed requests never reach ObserveQuery (they have no trace or result), so
// the server reports them here.
func (o *Observer) CountShed() {
	if o == nil {
		return
	}
	o.queriesTotal.With(StatusShed).Inc()
}

// SampleRuntime refreshes the runtime gauge set (goroutines, heap, GC);
// the /metrics handler calls it immediately before Registry.Expose.
func (o *Observer) SampleRuntime() {
	if o == nil {
		return
	}
	o.runtime.Sample()
}

// ObserveQuery folds one finished query's outcome record into the
// registry: status count, end-to-end latency, per-span stage and phase
// histograms and the per-query counter totals. A timeout counts under
// status="cancelled".
func (o *Observer) ObserveQuery(q QueryObservation) {
	if o == nil {
		return
	}
	status := q.Status
	switch status {
	case StatusTimeout, StatusCancelled:
		status = StatusCancelled
		o.queriesCancelled.Inc()
	}
	o.queriesTotal.With(status).Inc()
	for i, s := range counterSeries {
		o.counters[i].Add(float64(s.value(&q.Counters)))
	}
	if q.Trace == nil {
		return
	}
	o.querySeconds.Observe(q.Trace.Duration().Seconds())
	o.statusSeconds.With(status).Observe(q.Trace.Duration().Seconds())
	q.Trace.Root.Walk(func(depth int, sd SpanData) {
		if depth == 0 {
			return // the root duplicates jsonpark_query_seconds
		}
		o.stageSeconds.With(sd.Name).Observe(
			(time.Duration(sd.DurationUS) * time.Microsecond).Seconds())
	})
	o.phaseSeconds.With("parse").Observe(q.Phases.Parse.Seconds())
	o.phaseSeconds.With("plan").Observe(q.Phases.Plan.Seconds())
	o.phaseSeconds.With("sqlgen").Observe(q.Phases.SQLGen.Seconds())
	o.phaseSeconds.With("exec").Observe(q.Phases.Exec.Seconds())
}
