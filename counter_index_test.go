package jsonpark_test

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"jsonpark/internal/obsv"
	"jsonpark/internal/obsv/qlog"
)

// TestCounterIndex keeps DESIGN.md §10's query-log table, qlog.LogQuery and
// the /metrics exposition in step. Every field of obsv.Counters has a row
// whose key cell lists exactly the qlog keys that setting the field moves
// and whose series cell lists exactly the /metrics series it moves; every
// key LogQuery can write and every status appears in the table.
func TestCounterIndex(t *testing.T) {
	rows := counterRows(t)
	byField := map[string]counterRow{}
	documented := map[string]bool{}
	for _, r := range rows {
		for _, k := range r.keys {
			documented[k] = true
		}
		if r.field != "" {
			byField[r.field] = r
		}
	}

	zero, zeroSeries := logLine(t, qlog.QueryRecord{}), exposition(obsv.Counters{})
	typ := reflect.TypeOf(obsv.Counters{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		row, ok := byField[name]
		if !ok {
			t.Errorf("obsv.Counters.%s has no row in DESIGN.md §10", name)
			continue
		}
		delete(byField, name)
		var c obsv.Counters
		switch f := reflect.ValueOf(&c).Elem().Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(7)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("obsv.Counters.%s has kind %s", name, f.Kind())
		}

		var keys []string
		for k, v := range logLine(t, qlog.QueryRecord{Counters: c}) {
			if !reflect.DeepEqual(zero[k], v) {
				keys = append(keys, k)
			}
		}
		slices.Sort(keys)
		if !slices.Equal(keys, row.keys) {
			t.Errorf("%s: LogQuery writes keys %q, DESIGN.md §10 lists %q", name, keys, row.keys)
		}

		var series []string
		for s, v := range exposition(c) {
			if zeroSeries[s] != v {
				series = append(series, s)
			}
		}
		slices.Sort(series)
		if !slices.Equal(series, row.series) {
			t.Errorf("%s: /metrics moves %q, DESIGN.md §10 lists %q", name, series, row.series)
		}
	}
	for name := range byField {
		t.Errorf("DESIGN.md §10 names %s, which is no field of obsv.Counters", name)
	}

	full := logLine(t, qlog.QueryRecord{Status: qlog.StatusError, Error: "boom", Slow: true})
	for k := range full {
		if !documented[k] {
			t.Errorf("LogQuery writes key %q, which DESIGN.md §10 does not list", k)
		}
	}
	var status string
	for _, r := range rows {
		if slices.Contains(r.keys, "status") {
			status = r.meaning
		}
	}
	for _, s := range []string{obsv.StatusOK, obsv.StatusError, obsv.StatusCancelled, obsv.StatusTimeout, obsv.StatusShed} {
		if !strings.Contains(status, "`"+s+"`") {
			t.Errorf("DESIGN.md §10's status row does not list %q", s)
		}
	}
}

// counterRow is one row of DESIGN.md §10's query-log table: the backquoted
// names of its key cell (none for "(not logged)"), its meaning, the
// obsv.Counters field it reports ("" for —) and the /metrics series named
// in its series cell; keys and series sorted.
type counterRow struct {
	keys    []string
	meaning string
	field   string
	series  []string
}

func counterRows(t *testing.T) []counterRow {
	t.Helper()
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## 10. ")
	if !ok {
		t.Fatal("DESIGN.md has no §10")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	names := regexp.MustCompile("`([^`]*)`")
	quoted := func(cell, prefix string) []string {
		var out []string
		for _, m := range names.FindAllStringSubmatch(cell, -1) {
			if strings.HasPrefix(m[1], prefix) {
				out = append(out, m[1])
			}
		}
		slices.Sort(out)
		return out
	}
	var rows []counterRow
	col := map[string]int{}
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") || strings.HasPrefix(line, "|---") {
			if len(rows) > 0 {
				break // the end of the first table
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		if len(col) == 0 {
			for i, c := range cells {
				col[strings.TrimSpace(c)] = i
			}
			for _, h := range []string{"key", "meaning", "counter", "/metrics series"} {
				if _, ok := col[h]; !ok {
					t.Fatalf("DESIGN.md §10's first table has no %q column: %s", h, line)
				}
			}
			continue
		}
		if len(cells) != len(col) {
			t.Fatalf("DESIGN.md §10 row has %d cells, want %d: %s", len(cells), len(col), line)
		}
		r := counterRow{
			keys:    quoted(cells[col["key"]], ""),
			meaning: cells[col["meaning"]],
			series:  quoted(cells[col["/metrics series"]], "jsonpark_"),
		}
		if f := quoted(cells[col["counter"]], ""); len(f) == 1 {
			r.field = f[0]
		}
		rows = append(rows, r)
	}
	if len(rows) == 0 {
		t.Fatal("DESIGN.md §10 has no query-log table")
	}
	return rows
}

// logLine returns the keys and values of rec's query-log line, less the
// timestamp.
func logLine(t *testing.T, rec qlog.QueryRecord) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	qlog.New(&buf).LogQuery(rec)
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("query-log line %q: %v", buf.String(), err)
	}
	delete(m, "ts")
	return m
}

// exposition returns the value of every sample line of the /metrics
// exposition of a fresh observer that saw one query count c, keyed by the
// series name and its labels.
func exposition(c obsv.Counters) map[string]string {
	o := obsv.NewObserver()
	o.ObserveQuery(obsv.Outcome(nil, nil, c))
	var buf bytes.Buffer
	o.Registry.Expose(&buf)
	out := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if sp := strings.LastIndexByte(line, ' '); sp > 0 && !strings.HasPrefix(line, "#") {
			out[line[:sp]] = line[sp+1:]
		}
	}
	return out
}
