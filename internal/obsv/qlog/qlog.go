// Package qlog is the structured query log: one JSON line per event on an
// io.Writer sink, with leveled records and ordered, constant field keys.
// Every query the server (or a CLI run with -qlog) completes emits exactly
// one completion record carrying the trace ID, plan fingerprint, per-phase
// timings, row/byte counts, memory peak, spill bytes and final status, so
// the log alone reconstructs what each query cost after the process — and
// the in-memory trace ring — are gone.
//
// Field keys must be constant strings; the jsqlint `logkeys` analyzer
// enforces this so the log schema stays greppable and machine-parseable.
package qlog

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"sync"
	"time"

	"jsonpark/internal/obsv"
	"jsonpark/internal/variant"
)

// Level orders log records by severity.
type Level int

// Levels, lowest to highest severity.
const (
	LevelInfo Level = iota
	LevelWarn
	LevelError
)

// String renders the level as it appears in the "level" field.
func (l Level) String() string {
	switch l {
	case LevelWarn:
		return "warn"
	case LevelError:
		return "error"
	default:
		return "info"
	}
}

// Field is one key/value pair in a log record. Keys must be constant
// strings (enforced by jsqlint logkeys); values may be any JSON-encodable
// Go value.
type Field struct {
	Key   string
	Value any
}

// F builds a Field. The key must be a constant string.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Logger writes one JSON object per line to a sink. Safe for concurrent
// use; each Log call emits exactly one line. A nil *Logger discards
// everything, so call sites thread an optional logger without guarding.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	min Level
	now func() time.Time
}

// New returns a logger writing to w at LevelInfo and above.
func New(w io.Writer) *Logger {
	return &Logger{w: w, now: time.Now}
}

// SetMinLevel drops records below min. Nil-safe.
func (l *Logger) SetMinLevel(min Level) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.min = min
	l.mu.Unlock()
}

// Log emits one record: {"ts":...,"level":...,"event":...,<fields...>} on a
// single line, preserving field order. The event name and every field key
// must be constant strings. Nil-safe.
func (l *Logger) Log(level Level, event string, fields ...Field) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if level < l.min || l.w == nil {
		return
	}
	buf := make([]byte, 0, 256)
	buf = append(buf, `{"ts":`...)
	buf = appendJSON(buf, l.now().UTC().Format(time.RFC3339Nano))
	buf = append(buf, `,"level":`...)
	buf = appendJSON(buf, level.String())
	buf = append(buf, `,"event":`...)
	buf = appendJSON(buf, event)
	for _, f := range fields {
		buf = append(buf, ',')
		buf = appendJSON(buf, f.Key)
		buf = append(buf, ':')
		buf = appendJSON(buf, f.Value)
	}
	buf = append(buf, '}', '\n')
	l.w.Write(buf)
}

// appendJSON appends the JSON encoding of v, degrading to an encoded error
// string for unmarshalable values so a bad field never loses the record.
// The field types of a query record are written directly, in the bytes
// json.Marshal writes for them.
func appendJSON(buf []byte, v any) []byte {
	switch x := v.(type) {
	case string:
		return variant.AppendJSONString(buf, x)
	case int64:
		return strconv.AppendInt(buf, x, 10)
	case bool:
		return strconv.AppendBool(buf, x)
	}
	b, err := json.Marshal(v)
	if err != nil {
		b, _ = json.Marshal(fmt.Sprintf("!marshal: %v", err))
	}
	return append(buf, b...)
}

// Statuses a query completion record can carry (obsv.StatusOf).
const (
	StatusOK        = obsv.StatusOK
	StatusError     = obsv.StatusError
	StatusCancelled = obsv.StatusCancelled
	StatusTimeout   = obsv.StatusTimeout
	StatusShed      = obsv.StatusShed
)

// QueryRecord is the fixed schema of one query completion record (see
// DESIGN.md §10 for the field table).
type QueryRecord struct {
	TraceID     string
	Query       string
	Strategy    string
	Fingerprint string
	Status      string // ok | error | cancelled | timeout | shed
	Error       string // empty unless Status != ok

	ParseUS  int64
	PlanUS   int64
	SQLGenUS int64
	ExecUS   int64
	TotalUS  int64

	obsv.Counters
	Slow bool
}

// LogQuery emits r as one "query" record. Slow queries and non-ok statuses
// are raised to warn/error so a level-filtered tail still surfaces them.
func (l *Logger) LogQuery(r QueryRecord) {
	level := LevelInfo
	switch r.Status {
	case StatusError:
		level = LevelError
	case StatusCancelled, StatusTimeout, StatusShed:
		level = LevelWarn
	}
	if r.Slow && level == LevelInfo {
		level = LevelWarn
	}
	fields := []Field{
		F("trace_id", r.TraceID),
		F("query", r.Query),
		F("strategy", r.Strategy),
		F("fingerprint", r.Fingerprint),
		F("status", r.Status),
		F("cache_hit", r.PlanCacheHit),
		F("text_cache_hit", r.TextCacheHit),
		F("result_cache_hit", r.ResultCacheHit),
		F("parse_us", r.ParseUS),
		F("plan_us", r.PlanUS),
		F("sqlgen_us", r.SQLGenUS),
		F("exec_us", r.ExecUS),
		F("total_us", r.TotalUS),
		F("rows", r.RowsReturned),
		F("bytes_scanned", r.BytesScanned),
		F("mem_peak_bytes", r.MemPeakBytes),
		F("spill_bytes", r.SpillBytes),
		F("spills", r.Spills),
		F("parallel_breakers", r.ParallelBreakers),
		F("typed_cols", r.TypedCols),
		F("fallback_cols", r.FallbackCols),
		F("disk_reads", r.DiskReads),
	}
	if r.Slow {
		fields = append(fields, F("slow", true))
	}
	if r.Error != "" {
		fields = append(fields, F("error", r.Error))
	}
	l.Log(level, "query", fields...)
}

// Fingerprint hashes the generated SQL and strategy into a stable 64-bit
// plan identity (FNV-1a), so the log groups repeated shapes of the same
// query without retaining full SQL text in every aggregation.
func Fingerprint(sql, strategy string) string {
	h := fnv.New64a()
	io.WriteString(h, strategy)
	h.Write([]byte{0})
	io.WriteString(h, sql)
	return fmt.Sprintf("%016x", h.Sum64())
}
