package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a phase, an
// HTTP request or a call into a layer. Times are nanoseconds since the
// recorder started. Parent is 0 for a root span.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Phase   string `json:"phase"`
	Request int    `json:"request,omitempty"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how the plain run stays span-free.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// start opens a span and returns its id (0 on a nil recorder).
func (r *recorder) start(name, phase string, parent, request int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Phase: phase, Request: request, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// spanTotals is the per-name roll-up written beside the spans.
type spanTotals struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children (overlapping children, as under
// concurrent clients, are counted once).
func selfTimes(spans []span) []int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].a < ivs[b].a })
		covEnd := s.Start
		for _, c := range ivs {
			a, b := c.a, c.b
			if a < covEnd {
				a = covEnd
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				self[i] -= b - a
				covEnd = b
			}
		}
	}
	return self
}

func rollUp(spans []span) []spanTotals {
	self := selfTimes(spans)
	byName := make(map[string]*spanTotals)
	var order []string
	for i, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
			order = append(order, s.Name)
		}
		t.Count++
		t.TotalMs += float64(s.End-s.Start) / 1e6
		t.SelfMs += float64(self[i]) / 1e6
	}
	out := make([]spanTotals, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// write stores the spans and their roll-up in dir/trace-<workload>.json.
func (r *recorder) write(dir string) (string, []spanTotals, error) {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	totals := rollUp(spans)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", nil, err
	}
	path := filepath.Join(dir, "trace-"+r.workload+".json")
	blob, err := json.Marshal(struct {
		Workload string       `json:"workload"`
		Totals   []spanTotals `json:"totals"`
		Spans    []span       `json:"spans"`
	}{r.workload, totals, spans})
	if err != nil {
		return "", nil, err
	}
	return path, totals, os.WriteFile(path, blob, 0o644)
}
