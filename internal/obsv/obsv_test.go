package obsv

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatalf("nil span Child = %v", c)
	}
	c.End()
	c.SetAttr("k", 1)
	ran := false
	c.Timed("y", func() { ran = true })
	if !ran {
		t.Error("Timed must run fn even on a nil span")
	}
}

func TestSpanTreeSnapshot(t *testing.T) {
	tr := NewTracer(4).Start("query")
	tr.Root.SetAttr("q", "src")
	a := tr.Root.Child("parse")
	a.SetAttr("tokens", 12)
	a.End()
	b := tr.Root.Child("execute")
	b.Child("scan").End()
	b.End()
	td := tr.Finish()

	if td.Root.Name != "query" || len(td.Root.Children) != 2 {
		t.Fatalf("root = %+v", td.Root)
	}
	var names []string
	td.Root.Walk(func(depth int, sd SpanData) {
		names = append(names, fmt.Sprintf("%d:%s", depth, sd.Name))
	})
	want := []string{"0:query", "1:parse", "1:execute", "2:scan"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("walk order = %v, want %v", names, want)
	}
	if td.Root.Children[0].Attrs[0] != (Attr{Key: "tokens", Value: "12"}) {
		t.Errorf("attrs = %v", td.Root.Children[0].Attrs)
	}
	out := td.Root.Render()
	if !strings.Contains(out, "parse") || !strings.Contains(out, "  execute") {
		t.Errorf("render = %q", out)
	}
}

func TestSpanEndIsIdempotent(t *testing.T) {
	s := &Span{name: "x", start: time.Now().Add(-time.Millisecond)}
	s.End()
	d := s.duration
	time.Sleep(time.Millisecond)
	s.End()
	if s.duration != d {
		t.Errorf("second End changed duration: %v vs %v", s.duration, d)
	}
}

func TestTracerRingEvictsOldest(t *testing.T) {
	tc := NewTracer(3)
	var ids []string
	for i := 0; i < 5; i++ {
		tr := tc.Start("q")
		tr.SetAttr("i", fmt.Sprint(i))
		ids = append(ids, tr.ID)
		tr.Finish()
	}
	got := tc.Recent(0)
	if len(got) != 3 {
		t.Fatalf("retained %d traces, want 3", len(got))
	}
	// Newest first; the two oldest evicted.
	for i, td := range got {
		want := ids[4-i]
		if td.ID != want {
			t.Errorf("recent[%d] = %s, want %s", i, td.ID, want)
		}
	}
	if limited := tc.Recent(2); len(limited) != 2 {
		t.Errorf("Recent(2) returned %d", len(limited))
	}
}

func TestTraceError(t *testing.T) {
	tc := NewTracer(2)
	tr := tc.Start("q")
	tr.SetError(fmt.Errorf("boom"))
	td := tr.Finish()
	if !td.Errored || td.ErrorMsg != "boom" {
		t.Errorf("trace = %+v", td)
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help c")
	c.Inc()
	c.Add(2.5)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 3.5 {
		t.Errorf("counter = %v", got)
	}
	g := r.Gauge("g", "help g")
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Errorf("gauge = %v", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 106.5 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	var sb strings.Builder
	r.Expose(&sb)
	out := sb.String()
	for _, want := range []string{
		`h_seconds_bucket{le="1"} 2`, // Observe(bound) falls into that bucket
		`h_seconds_bucket{le="10"} 3`,
		`h_seconds_bucket{le="+Inf"} 4`,
		`h_seconds_sum 106.5`,
		`h_seconds_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("q_total", "help", "status")
	cv.With("ok").Add(2)
	cv.With("error").Inc()
	cv.With("ok").Inc()
	hv := r.HistogramVec("stage_seconds", "help", []float64{1}, "stage")
	hv.With("parse").Observe(0.5)
	var sb strings.Builder
	r.Expose(&sb)
	out := sb.String()
	for _, want := range []string{
		`q_total{status="ok"} 3`,
		`q_total{status="error"} 1`,
		`stage_seconds_bucket{stage="parse",le="1"} 1`,
		`stage_seconds_count{stage="parse"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration must panic")
		}
	}()
	r.Counter("dup", "")
}

// TestExpositionFormat checks the output line by line against the Prometheus
// text format: every non-comment line is `name{labels} value`, every metric
// is preceded by matching # HELP and # TYPE comments.
func TestExpositionFormat(t *testing.T) {
	o := NewObserver()
	tr := o.Tracer.Start("query")
	tr.Root.Child("jsoniq.parse").End()
	td := tr.Finish()
	o.ObserveQuery(Outcome(td, nil, Counters{BytesScanned: 4096, RowsReturned: 7, ParallelBreakers: 2}))
	o.ObserveQuery(Outcome(nil, fmt.Errorf("boom"), Counters{}))

	var sb strings.Builder
	o.Registry.Expose(&sb)
	out := sb.String()

	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line %q", line)
			}
			typed[parts[2]] = true
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line %q has no value", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed, ok := strings.CutSuffix(name, suffix); ok && typed[trimmed] {
				base = trimmed
				break
			}
		}
		if !typed[base] {
			t.Errorf("sample %q lacks a preceding # TYPE", line)
		}
	}

	for _, want := range []string{
		`jsonpark_queries_total{status="ok"} 1`,
		`jsonpark_queries_total{status="error"} 1`,
		`jsonpark_bytes_scanned_total 4096`,
		`jsonpark_rows_returned_total 7`,
		`jsonpark_parallel_breakers_total 2`,
		`jsonpark_query_stage_seconds_count{stage="jsoniq.parse"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestConcurrentObservations(t *testing.T) {
	o := NewObserver()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr := o.Tracer.Start("query")
				tr.Root.Child("stage").End()
				td := tr.Finish()
				o.ObserveQuery(Outcome(td, nil, Counters{BytesScanned: 1, RowsReturned: 1}))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			o.Registry.Expose(&sb)
			o.Tracer.Recent(10)
		}
	}()
	wg.Wait()
	<-done
	var sb strings.Builder
	o.Registry.Expose(&sb)
	if !strings.Contains(sb.String(), `jsonpark_queries_total{status="ok"} 1600`) {
		t.Errorf("lost observations:\n%s", sb.String())
	}
}
