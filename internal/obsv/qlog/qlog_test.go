package qlog

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"jsonpark/internal/obsv"
)

func TestLogEmitsOneOrderedJSONLine(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	l.Log(LevelInfo, "query", F("trace_id", "abc"), F("rows", int64(7)), F("ok", true))
	line := buf.String()
	if strings.Count(line, "\n") != 1 || !strings.HasSuffix(line, "\n") {
		t.Fatalf("want exactly one newline-terminated line, got %q", line)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("line is not valid JSON: %v\n%s", err, line)
	}
	for _, k := range []string{"ts", "level", "event", "trace_id", "rows", "ok"} {
		if _, found := rec[k]; !found {
			t.Errorf("missing key %q in %s", k, line)
		}
	}
	if rec["level"] != "info" || rec["event"] != "query" {
		t.Errorf("level/event wrong: %s", line)
	}
	// Insertion order is preserved (maps would sort keys alphabetically).
	if ti, ri := strings.Index(line, `"trace_id"`), strings.Index(line, `"rows"`); ti > ri {
		t.Errorf("field order not preserved: %s", line)
	}
}

func TestLogLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	l.SetMinLevel(LevelWarn)
	l.Log(LevelInfo, "dropped")
	l.Log(LevelWarn, "kept")
	if n := strings.Count(buf.String(), "\n"); n != 1 {
		t.Fatalf("want 1 record after filtering, got %d: %q", n, buf.String())
	}
	if !strings.Contains(buf.String(), `"event":"kept"`) {
		t.Fatalf("wrong record survived: %q", buf.String())
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.SetMinLevel(LevelError)
	l.Log(LevelInfo, "noop", F("k", "v"))
	l.LogQuery(QueryRecord{Status: StatusOK})
}

func TestLogQuerySchemaAndLevels(t *testing.T) {
	cases := []struct {
		rec       QueryRecord
		wantLevel string
	}{
		{QueryRecord{Status: StatusOK}, "info"},
		{QueryRecord{Status: StatusOK, Slow: true}, "warn"},
		{QueryRecord{Status: StatusCancelled}, "warn"},
		{QueryRecord{Status: StatusTimeout}, "warn"},
		{QueryRecord{Status: StatusError, Error: "boom"}, "error"},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		l := New(&buf)
		c.rec.TraceID = "t-1"
		c.rec.ParseUS, c.rec.PlanUS, c.rec.SQLGenUS, c.rec.ExecUS = 1, 2, 3, 4
		c.rec.MemPeakBytes, c.rec.SpillBytes = 1024, 2048
		l.LogQuery(c.rec)
		var m map[string]any
		if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
			t.Fatalf("%+v: invalid JSON: %v", c.rec, err)
		}
		if m["level"] != c.wantLevel {
			t.Errorf("status %q slow=%v: level = %v, want %v", c.rec.Status, c.rec.Slow, m["level"], c.wantLevel)
		}
		for _, k := range []string{"trace_id", "status", "parse_us", "plan_us",
			"sqlgen_us", "exec_us", "total_us", "rows", "bytes_scanned",
			"mem_peak_bytes", "spill_bytes", "spills", "parallel_breakers"} {
			if _, found := m[k]; !found {
				t.Errorf("record missing %q: %s", k, buf.String())
			}
		}
		if c.rec.Error != "" && m["error"] != c.rec.Error {
			t.Errorf("error field = %v, want %q", m["error"], c.rec.Error)
		}
	}
}

// TestLogQueryGoldenLine pins one completion record byte for byte, every
// field set and the clock fixed: a renamed, reordered, dropped or re-encoded
// key fails here.
func TestLogQueryGoldenLine(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	l.now = func() time.Time { return time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC) }
	l.LogQuery(QueryRecord{
		TraceID:     "t-1",
		Query:       `for $d in collection("docs") return $d`,
		Strategy:    "keep-flag",
		Fingerprint: "0123456789abcdef",
		Status:      StatusError,
		Error:       "boom <&>",
		ParseUS:     1, PlanUS: 2, SQLGenUS: 3, ExecUS: 4, TotalUS: 10,
		Counters: obsv.Counters{
			RowsReturned: 11, BytesScanned: 12, PartitionsTotal: 13, PartitionsPruned: 14,
			ParallelBreakers: 15, MemPeakBytes: 16, Spills: 17, SpillBytes: 18,
			TypedCols: 19, FallbackCols: 20, DiskReads: 21,
			PlanCacheHit: true, TextCacheHit: true, ResultCacheHit: true,
		},
		Slow: true,
	})
	const want = `{"ts":"2026-01-02T03:04:05.000000006Z","level":"error","event":"query",` +
		`"trace_id":"t-1","query":"for $d in collection(\"docs\") return $d","strategy":"keep-flag",` +
		`"fingerprint":"0123456789abcdef","status":"error","cache_hit":true,"text_cache_hit":true,` +
		`"result_cache_hit":true,"parse_us":1,"plan_us":2,"sqlgen_us":3,"exec_us":4,"total_us":10,` +
		`"rows":11,"bytes_scanned":12,"mem_peak_bytes":16,"spill_bytes":18,"spills":17,` +
		`"parallel_breakers":15,"typed_cols":19,"fallback_cols":20,"disk_reads":21,"slow":true,` +
		`"error":"boom \u003c\u0026\u003e"}` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("LogQuery wrote\n%s\nwant\n%s", got, want)
	}
}

func TestConcurrentLogLinesNeverInterleave(t *testing.T) {
	var buf safeBuffer
	l := New(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Log(LevelInfo, "spin", F("payload", strings.Repeat("x", 100)))
			}
		}()
	}
	wg.Wait()
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("want 400 lines, got %d", len(lines))
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("corrupt line %q: %v", line, err)
		}
	}
}

type safeBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *safeBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *safeBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestFingerprintStableAndDiscriminating(t *testing.T) {
	a := Fingerprint("SELECT 1", "rewrite")
	if a != Fingerprint("SELECT 1", "rewrite") {
		t.Fatal("fingerprint not deterministic")
	}
	if len(a) != 16 {
		t.Fatalf("want 16 hex chars, got %q", a)
	}
	if a == Fingerprint("SELECT 2", "rewrite") {
		t.Error("different SQL collided")
	}
	if a == Fingerprint("SELECT 1", "udf") {
		t.Error("different strategy collided")
	}
}

func TestUnmarshalableFieldDegradesGracefully(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf)
	l.Log(LevelInfo, "bad", F("fn", func() {}))
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("record with unmarshalable value must still be valid JSON: %v\n%s", err, buf.String())
	}
	if s, _ := m["fn"].(string); !strings.HasPrefix(s, "!marshal:") {
		t.Errorf("want !marshal placeholder, got %v", m["fn"])
	}
}
