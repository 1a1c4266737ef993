package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness from outside
// the program. Times are nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Query  string `json:"query,omitempty"`
	Path   string `json:"path,omitempty"` // gen, hand, http
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Estimated marks a child whose interval was not observed inside its
	// parent: its duration comes from an identical standalone call made just
	// before (jsoniq.Parse lexes, Engine.Prepare parses SQL).
	Estimated bool `json:"estimated,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, which is how tracing is switched off.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(s span) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans) + 1
	s.Start, s.End = now, now
	r.spans = append(r.spans, s)
	return s.ID
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// estimate adds a child of parent that starts with it and lasts d.
func (r *recorder) estimate(parent int, name string, d time.Duration) {
	if r == nil || parent == 0 {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.spans[parent-1]
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Query: p.Query, Path: p.Path, Pass: p.Pass,
		Start: p.Start, End: p.Start + int64(d), Estimated: true,
	})
}

// selfTimes gives each span's duration minus the part of its interval that
// its children cover (overlapping children are not subtracted twice, and a
// child never counts beyond its parent's bounds).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return out
}
