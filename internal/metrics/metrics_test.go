package metrics

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func render(r *Registry) string {
	var sb strings.Builder
	r.Render(&sb)
	return sb.String()
}

func TestCounterVecRender(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("http_requests_total", "Requests served.", "endpoint", "status")
	for range 3 {
		reqs.With("predict", "200").Inc()
	}
	reqs.With("predict", "429").Inc()
	reqs.With("ingest", "200").Inc()

	got := render(r)
	want := `# HELP http_requests_total Requests served.
# TYPE http_requests_total counter
http_requests_total{endpoint="ingest",status="200"} 1
http_requests_total{endpoint="predict",status="200"} 3
http_requests_total{endpoint="predict",status="429"} 1
`
	if got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestHistogramRender(t *testing.T) {
	r := NewRegistry()
	lat := r.HistogramVec("req_seconds", "Latency.", []float64{0.1, 1, 10}, "endpoint")
	h := lat.With("predict")
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 20} {
		h.Observe(v)
	}
	// An observation exactly on a bound lands in that bound's bucket
	// (le is an upper inclusive bound), so le="0.1" holds 0.05 and 0.1.
	got := render(r)
	want := `# HELP req_seconds Latency.
# TYPE req_seconds histogram
req_seconds_bucket{endpoint="predict",le="0.1"} 2
req_seconds_bucket{endpoint="predict",le="1"} 3
req_seconds_bucket{endpoint="predict",le="10"} 4
req_seconds_bucket{endpoint="predict",le="+Inf"} 5
req_seconds_sum{endpoint="predict"} 22.65
req_seconds_count{endpoint="predict"} 5
`
	if got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
	if h.Count() != 5 {
		t.Fatalf("Count = %d, want 5", h.Count())
	}
}

// samples is a test snapshot emitting a fixed list.
type samples []Sample

func (ss samples) Samples(emit Emit) {
	for _, s := range ss {
		emit(s)
	}
}

func TestCollectorRenderAndEscaping(t *testing.T) {
	r := NewRegistry()
	r.Add(NewSection("test", func() samples {
		return samples{
			{Name: "cache_hit_rate", Help: "Fraction of\nhits.", Value: 0.75},
			{
				Name: "planner_strategy", Help: "Decision.", Type: "gauge",
				Labels: [][2]string{{"model", `we"ird\name`}}, Value: 1,
			},
			{Name: "planner_strategy", Labels: [][2]string{{"model", "b"}}, Value: 1},
		}
	}))
	got := render(r)
	want := `# HELP cache_hit_rate Fraction of\nhits.
# TYPE cache_hit_rate gauge
cache_hit_rate 0.75
# HELP planner_strategy Decision.
# TYPE planner_strategy gauge
planner_strategy{model="we\"ird\\name"} 1
planner_strategy{model="b"} 1
`
	if got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		0.5:          "0.5",
		3:            "3",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("formatValue(NaN) = %q", got)
	}
}

func TestRegistryPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.CounterVec("a_total", "a")
	expectPanic("duplicate name", func() { r.CounterVec("a_total", "again") })
	expectPanic("bad metric name", func() { r.CounterVec("0bad", "x") })
	expectPanic("bad label name", func() { r.CounterVec("ok_total", "x", "0bad") })
	v := r.CounterVec("lbl_total", "x", "one")
	expectPanic("label arity", func() { v.With("a", "b") })
}

// checkExposition validates Prometheus text-format 0.0.4 structure: every
// sample line parses, every sample is preceded by its family's HELP/TYPE
// pair, histogram buckets are cumulative with _count equal to the +Inf
// bucket, and no family header appears twice.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	sampleRE := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[-+]?Inf|[-+0-9.eE]+)$`)
	helpRE := regexp.MustCompile(`^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*)( .*)?$`)
	seenHeader := map[string]bool{}
	declaredType := map[string]string{}
	bucketCum := map[string]uint64{}
	lastBucket := map[string]uint64{}

	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			trimmed := strings.TrimSuffix(name, suf)
			if trimmed != name && declaredType[trimmed] == "histogram" {
				return trimmed
			}
		}
		return name
	}

	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			m := helpRE.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("malformed comment line: %q", line)
			}
			key := m[1] + " " + m[2]
			if seenHeader[key] {
				t.Fatalf("family header repeated: %q", line)
			}
			seenHeader[key] = true
			if m[1] == "TYPE" {
				declaredType[m[2]] = strings.TrimSpace(m[3])
			}
			continue
		}
		m := sampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		fam := base(m[1])
		if declaredType[fam] == "" {
			t.Fatalf("sample %q has no preceding TYPE for family %q", line, fam)
		}
		if strings.HasSuffix(m[1], "_bucket") && declaredType[fam] == "histogram" {
			series := fam + stripLE(m[2])
			v, err := strconv.ParseUint(m[3], 10, 64)
			if err != nil {
				t.Fatalf("bucket value %q not a count: %v", m[3], err)
			}
			if v < bucketCum[series] {
				t.Fatalf("bucket counts not cumulative at %q: %d < %d", line, v, bucketCum[series])
			}
			bucketCum[series] = v
			lastBucket[series] = v
			if strings.Contains(m[2], `le="+Inf"`) {
				delete(bucketCum, series) // next series for same labels restarts
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// stripLE removes the le label from a label-set string so bucket lines of
// one series share a key.
func stripLE(labels string) string {
	re := regexp.MustCompile(`,?le="[^"]*"`)
	s := re.ReplaceAllString(labels, "")
	s = strings.ReplaceAll(s, "{,", "{")
	if s == "{}" {
		return ""
	}
	return s
}

func TestHandlerServesValidExposition(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("factorml_http_requests_total", "Requests.", "endpoint", "status")
	lat := r.HistogramVec("factorml_http_request_seconds", "Latency.", nil, "endpoint")
	for range 10 {
		reqs.With("predict", "200").Inc()
	}
	reqs.With("ingest", "429").Inc()
	reqs.With("ingest", "429").Inc()
	for i := 0; i < 100; i++ {
		lat.With("predict").Observe(float64(i) * 0.003)
	}
	r.Add(NewSection("", func() samples {
		return samples{
			{Name: "factorml_engine_models", Help: "Models.", Value: 2},
			{Name: "factorml_dim_cache_hits_total", Help: "Hits.", Type: "counter", Value: 41},
		}
	}))

	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	buf := new(strings.Builder)
	if _, err := fmt.Fprint(buf, readAll(t, resp)); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	checkExposition(t, text)
	for _, needle := range []string{
		`factorml_http_requests_total{endpoint="predict",status="200"} 10`,
		`factorml_http_request_seconds_count{endpoint="predict"} 100`,
		`factorml_engine_models 2`,
		"# TYPE factorml_dim_cache_hits_total counter",
	} {
		if !strings.Contains(text, needle) {
			t.Fatalf("exposition missing %q:\n%s", needle, text)
		}
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestConcurrentObserveAndRender hammers counters and histograms from
// many goroutines while rendering concurrently; with -race this pins the
// lock-free hot path, and afterwards the totals must be exact (no lost
// updates in the CAS sum loop or the sync.Map children).
func TestConcurrentObserveAndRender(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("c_total", "c", "endpoint")
	lat := r.HistogramVec("h_seconds", "h", []float64{0.01, 0.1, 1}, "endpoint")
	endpoints := []string{"predict", "ingest", "refresh"}

	const goroutines = 8
	const perG = 500
	stop := make(chan struct{})
	scraperDone := make(chan struct{})
	go func() { // concurrent scraper
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
				checkExposition(t, render(r))
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ep := endpoints[(g+i)%len(endpoints)]
				reqs.With(ep).Inc()
				lat.With(ep).Observe(0.005 * float64(i%40))
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-scraperDone

	var total uint64
	var obs uint64
	var sum float64
	for _, ep := range endpoints {
		total += reqs.With(ep).Value()
		obs += lat.With(ep).Count()
		h := lat.With(ep)
		sum += math.Float64frombits(h.sum.Load())
	}
	if total != goroutines*perG {
		t.Fatalf("counter total = %d, want %d", total, goroutines*perG)
	}
	if obs != goroutines*perG {
		t.Fatalf("observation total = %d, want %d", obs, goroutines*perG)
	}
	// Each goroutine observes 0.005*(i%40) for i in [0,500): 12 full
	// cycles of sum 0.005*780 plus i%40 for the last 20 → exact in
	// float64 terms only up to ordering, so check against a tolerance.
	wantPer := 0.0
	for i := 0; i < perG; i++ {
		wantPer += 0.005 * float64(i%40)
	}
	if diff := math.Abs(sum - wantPer*goroutines); diff > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v (diff %v)", sum, wantPer*goroutines, diff)
	}
}

// topLevel is a test snapshot whose fields merge into the top of /statsz.
type topLevel struct {
	Rows uint64 `json:"rows"`
}

func (t topLevel) Samples(emit Emit) {
	emit.Counter("rows_total", "Rows.", float64(t.Rows))
}

// scalar is a test snapshot that is not a JSON object.
type scalar float64

func (scalar) Samples(Emit) {}

// TestStatszSections: one registry renders both documents from the same
// snapshots — a named section under its name, an unnamed one's fields at
// the top level, each section's samples in the exposition — and a
// top-level section that is not a JSON object is refused.
func TestStatszSections(t *testing.T) {
	r := NewRegistry()
	rows := uint64(3)
	r.Add(NewSection("", func() topLevel { return topLevel{Rows: rows} }),
		NewSection("cache", func() samples { return samples{{Name: "hit_rate", Help: "Hits.", Value: 0.5}} }))
	doc, err := r.Statsz()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"cache":[{"Name":"hit_rate","Help":"Hits.","Type":"","Labels":null,"Value":0.5}],"rows":3}`; string(b) != want {
		t.Fatalf("statsz = %s, want %s", b, want)
	}
	rows = 7
	if out := render(r); !strings.Contains(out, "# TYPE rows_total counter\nrows_total 7\n") || !strings.Contains(out, "hit_rate 0.5\n") {
		t.Fatalf("exposition does not follow the snapshots:\n%s", out)
	}
	r.Add(NewSection("", func() scalar { return 1 }))
	if _, err := r.Statsz(); err == nil {
		t.Fatal("a top-level section that is not a JSON object rendered")
	}
}
