// Package metrics is the serving tier's one telemetry surface, with no
// dependencies: a Registry of live instruments — counters and latency
// histograms updated with atomics on the hot path (no locks once a
// labeled child exists) — and of named sections. A section is a snapshot
// function whose value both marshals as its block of /statsz (Statsz) and
// emits its own samples for /metrics (Render, in the Prometheus text
// exposition format 0.0.4, served by Handler), so the two endpoints render
// the same numbers from one source.
//
// The hot-path discipline mirrors the rest of the serving layer: a
// request touches only atomic adds on pre-resolved children; the
// registry mutex is taken at registration, first-use child creation and
// render time only, and a section's snapshot is taken at render time
// under the subsystem's own synchronization.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefLatencyBuckets are the default request-latency histogram bounds in
// seconds (upper bounds; +Inf is implicit).
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram is a fixed-bucket distribution. Observe is lock-free.
type Histogram struct {
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value (for latency histograms: seconds).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

const (
	typeCounter   = "counter"
	typeHistogram = "histogram"
	typeGauge     = "gauge"
)

// family is one registered metric family and its labeled children.
type family struct {
	name, help, typ string
	labels          []string
	bounds          []float64 // histogram families only

	children sync.Map // joined label values -> *child
	mu       sync.Mutex
}

type child struct {
	values []string
	ctr    *Counter
	hist   *Histogram
}

func (f *family) get(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x1f")
	if c, ok := f.children.Load(key); ok {
		return c.(*child)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children.Load(key); ok {
		return c.(*child)
	}
	c := &child{values: append([]string{}, values...)}
	switch f.typ {
	case typeCounter:
		c.ctr = &Counter{}
	case typeHistogram:
		c.hist = newHistogram(f.bounds)
	}
	f.children.Store(key, c)
	return c
}

// CounterVec is a counter family partitioned by labels.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (in the label
// order the vec was registered with), creating it on first use. Callers
// on hot paths should resolve children once and reuse them, but a
// repeated With on an existing child costs one lock-free map load.
func (v *CounterVec) With(values ...string) *Counter { return v.f.get(values).ctr }

// HistogramVec is a histogram family partitioned by labels.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.get(values).hist }

// Sample is one scrape-time value a section's snapshot emits.
type Sample struct {
	Name   string
	Help   string
	Type   string // typeGauge or typeCounter; empty means gauge
	Labels [][2]string
	Value  float64
}

// Emit receives a snapshot's samples.
type Emit func(Sample)

// Counter emits one counter sample.
func (e Emit) Counter(name, help string, v float64, labels ...[2]string) {
	e(Sample{Name: name, Help: help, Type: typeCounter, Labels: labels, Value: v})
}

// Gauge emits one gauge sample.
func (e Emit) Gauge(name, help string, v float64, labels ...[2]string) {
	e(Sample{Name: name, Help: help, Type: typeGauge, Labels: labels, Value: v})
}

// Snapshot is one section's value at render time: it marshals as the
// section's /statsz JSON and emits the section's /metrics samples.
type Snapshot interface {
	Samples(emit Emit)
}

// Section is a named block of /statsz whose snapshot also renders its
// /metrics samples. Build one with NewSection.
type Section struct {
	name string
	snap func() Snapshot
}

// NewSection names snap as a section. The empty name merges the
// snapshot's JSON object fields into the top level of /statsz.
func NewSection[T Snapshot](name string, snap func() T) Section {
	return Section{name: name, snap: func() Snapshot { return snap() }}
}

// Registry holds metric families and sections and renders them.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]bool
	sections []Section
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]bool)} }

func (r *Registry) register(name, help, typ string, bounds []float64, labels []string) *family {
	if !nameRE.MatchString(name) {
		panic("metrics: invalid metric name " + name)
	}
	for _, l := range labels {
		if !labelRE.MatchString(l) {
			panic("metrics: invalid label name " + l)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] {
		panic("metrics: duplicate metric name " + name)
	}
	r.byName[name] = true
	f := &family{name: name, help: help, typ: typ, bounds: bounds, labels: labels}
	r.families = append(r.families, f)
	return f
}

// CounterVec registers a counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, typeCounter, nil, labels)}
}

// HistogramVec registers a histogram family with the given upper bounds
// (nil selects DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefLatencyBuckets
	}
	bs := append([]float64{}, bounds...)
	sort.Float64s(bs)
	return &HistogramVec{r.register(name, help, typeHistogram, bs, labels)}
}

// Add registers sections. Section names must be unique, and sample names
// must not collide with registered families or with another section's
// samples of a different HELP/TYPE.
func (r *Registry) Add(secs ...Section) {
	r.mu.Lock()
	r.sections = append(r.sections, secs...)
	r.mu.Unlock()
}

// Statsz takes every section's snapshot into one JSON document: a named
// section under its name, an unnamed one's fields at the top level.
func (r *Registry) Statsz() (map[string]any, error) {
	r.mu.Lock()
	sections := append([]Section{}, r.sections...)
	r.mu.Unlock()
	out := make(map[string]any)
	for _, sec := range sections {
		v := sec.snap()
		if sec.name != "" {
			out[sec.name] = v
			continue
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(b, &fields); err != nil {
			return nil, fmt.Errorf("metrics: top-level section %T is not a JSON object: %w", v, err)
		}
		for k, f := range fields {
			out[k] = f
		}
	}
	return out, nil
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func labelString(pairs [][2]string) string {
	if len(pairs) == 0 {
		return ""
	}
	parts := make([]string, len(pairs))
	for i, p := range pairs {
		parts[i] = p[0] + `="` + escapeLabel(p[1]) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Render writes the full exposition. Families render in registration
// order with children sorted by label values; section samples render
// after, grouped by name in first-seen order.
func (r *Registry) Render(sb *strings.Builder) {
	r.mu.Lock()
	families := append([]*family{}, r.families...)
	sections := append([]Section{}, r.sections...)
	r.mu.Unlock()

	for _, f := range families {
		var kids []*child
		f.children.Range(func(_, v any) bool {
			kids = append(kids, v.(*child))
			return true
		})
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(i, j int) bool {
			return strings.Join(kids[i].values, "\x1f") < strings.Join(kids[j].values, "\x1f")
		})
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.typ)
		for _, c := range kids {
			pairs := make([][2]string, len(f.labels))
			for i, l := range f.labels {
				pairs[i] = [2]string{l, c.values[i]}
			}
			switch f.typ {
			case typeCounter:
				fmt.Fprintf(sb, "%s%s %d\n", f.name, labelString(pairs), c.ctr.Value())
			case typeHistogram:
				var cum uint64
				for i, b := range c.hist.bounds {
					cum += c.hist.counts[i].Load()
					bp := append(append([][2]string{}, pairs...), [2]string{"le", formatValue(b)})
					fmt.Fprintf(sb, "%s_bucket%s %d\n", f.name, labelString(bp), cum)
				}
				cum += c.hist.counts[len(c.hist.bounds)].Load()
				bp := append(append([][2]string{}, pairs...), [2]string{"le", "+Inf"})
				fmt.Fprintf(sb, "%s_bucket%s %d\n", f.name, labelString(bp), cum)
				fmt.Fprintf(sb, "%s_sum%s %s\n", f.name, labelString(pairs),
					formatValue(math.Float64frombits(c.hist.sum.Load())))
				fmt.Fprintf(sb, "%s_count%s %d\n", f.name, labelString(pairs), cum)
			}
		}
	}

	// Section samples, grouped so each family gets exactly one HELP/TYPE
	// header.
	var order []string
	grouped := make(map[string][]Sample)
	for _, sec := range sections {
		sec.snap().Samples(func(s Sample) {
			if s.Type == "" {
				s.Type = typeGauge
			}
			if _, ok := grouped[s.Name]; !ok {
				order = append(order, s.Name)
			}
			grouped[s.Name] = append(grouped[s.Name], s)
		})
	}
	for _, name := range order {
		ss := grouped[name]
		fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(ss[0].Help), name, ss[0].Type)
		for _, s := range ss {
			fmt.Fprintf(sb, "%s%s %s\n", name, labelString(s.Labels), formatValue(s.Value))
		}
	}
}

// Handler serves the exposition at GET; the content type is the
// Prometheus text format version 0.0.4.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		var sb strings.Builder
		r.Render(&sb)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(sb.String()))
	})
}
