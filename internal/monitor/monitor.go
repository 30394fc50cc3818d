package monitor

import (
	"log/slog"
	"sort"
	"sync"
	"time"
)

// Config sets the monitor's drift and staleness thresholds. The zero
// value selects the documented defaults.
type Config struct {
	// DriftWarnPSI marks a column "warn" at or above this PSI.
	// Defaults to 0.1 (the conventional moderate-shift threshold).
	DriftWarnPSI float64
	// DriftPSI marks a column "drift" at or above this PSI and flips
	// the model verdict to "drifting". Defaults to 0.25.
	DriftPSI float64
	// StalenessMaxRows flips the verdict to "stale" once this many
	// fact rows have been ingested since the last refresh. 0 disables
	// staleness-by-rows.
	StalenessMaxRows int64
	// SampleFraction is the fraction of predict requests whose outputs
	// feed the quality sketch (counter-based, deterministic). Values
	// outside (0, 1] select 1 (every request).
	SampleFraction float64
	// MinWindowRows is the live-window evidence floor: a column's PSI
	// only counts toward the verdict once its window holds at least
	// this many observations. Defaults to 50.
	MinWindowRows int64
	// Logger, when set, receives an event on every verdict transition.
	Logger *slog.Logger

	now func() time.Time // test seam; nil means time.Now
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.DriftWarnPSI <= 0 {
		out.DriftWarnPSI = 0.1
	}
	if out.DriftPSI <= 0 {
		out.DriftPSI = 0.25
	}
	if out.SampleFraction <= 0 || out.SampleFraction > 1 {
		out.SampleFraction = 1
	}
	if out.MinWindowRows <= 0 {
		out.MinWindowRows = 50
	}
	if out.Logger == nil {
		out.Logger = slog.New(slog.DiscardHandler)
	}
	if out.now == nil {
		out.now = time.Now
	}
	return out
}

// Monitor tracks per-model live distribution windows against persisted
// baselines. All methods are safe for concurrent use, and every method
// on a nil *Monitor is a free no-op, so call sites never branch on
// whether monitoring is enabled.
type Monitor struct {
	mu          sync.Mutex
	cfg         Config
	sampleEvery uint64
	models      map[string]*modelMon
}

type modelMon struct {
	name, kind  string
	version     int
	lin         *Lineage
	window      []Sketch           // live per-column sketches, baseline layout
	quality     *Sketch            // live prediction-quality sketch
	dimRuns     map[string][][]int // table -> column-index runs in the joined layout
	rowsSince   int64
	dimUpdates  int64
	refreshedAt time.Time
	samples     uint64
	lastVerdict string
}

// New returns a Monitor with cfg's zero fields replaced by defaults.
func New(cfg Config) *Monitor {
	c := cfg.withDefaults()
	return &Monitor{
		cfg:         c,
		sampleEvery: uint64(1/c.SampleFraction + 0.5),
		models:      make(map[string]*modelMon),
	}
}

// Attach registers (or replaces) a model under monitoring. lin may be
// nil or baseline-free, in which case staleness is still tracked but
// the verdict reports "unmonitored" until a refresh installs one.
func (m *Monitor) Attach(name, kind string, version int, lin *Lineage) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	mm := &modelMon{name: name, kind: kind, version: version, lin: lin.Clone(), refreshedAt: m.cfg.now()}
	if b := baselineOf(mm.lin); b != nil {
		mm.window = make([]Sketch, len(b.Columns))
		mm.dimRuns = make(map[string][][]int)
		var run []int
		var runTable string
		flush := func() {
			if len(run) > 0 {
				mm.dimRuns[runTable] = append(mm.dimRuns[runTable], run)
			}
		}
		for i, col := range b.Columns {
			mm.window[i] = *col.Sketch.EmptyCopy()
			if col.Table != runTable {
				flush()
				run, runTable = nil, col.Table
			}
			run = append(run, i)
		}
		flush()
		if b.Quality != nil {
			mm.quality = b.Quality.EmptyCopy()
		}
		if b.CapturedAtUnix > 0 {
			mm.refreshedAt = time.Unix(b.CapturedAtUnix, 0)
		}
	}
	m.models[name] = mm
}

func baselineOf(l *Lineage) *Baseline {
	if l == nil {
		return nil
	}
	return l.Baseline
}

// ObserveJoined folds one ingested fact row — already resolved to its
// full joined feature vector — into every attached model's live window.
// O(models × columns) with zero allocations: the constant-per-row cost
// that lets drift monitoring ride the change feed instead of rescanning.
func (m *Monitor) ObserveJoined(x []float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mm := range m.models {
		mm.rowsSince++
		if len(mm.window) != len(x) {
			continue
		}
		for i := range x {
			mm.window[i].Observe(x[i])
		}
	}
}

// ObserveDimUpdate folds an in-place dimension update's new feature
// values into each model's window sketches for that table's columns.
// An update is treated as fresh observations of the new values — an
// approximation (the old values are not retracted), matching the
// stream's own treatment of dimension updates as rebaseline triggers.
func (m *Monitor) ObserveDimUpdate(table string, feats []float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, mm := range m.models {
		runs, ok := mm.dimRuns[table]
		if !ok {
			continue
		}
		mm.dimUpdates++
		for _, run := range runs {
			for k, ci := range run {
				if k < len(feats) {
					mm.window[ci].Observe(feats[k])
				}
			}
		}
	}
}

// SampleQuality reports whether this predict request's outputs should
// feed the quality sketch (deterministic counter-based sampling at
// Config.SampleFraction), advancing the model's sample counter.
func (m *Monitor) SampleQuality(name string) bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	mm, ok := m.models[name]
	if !ok || mm.quality == nil {
		return false
	}
	n := mm.samples
	mm.samples++
	return n%m.sampleEvery == 0
}

// ObserveQuality folds one per-row quality value (GMM log-likelihood or
// NN output) into the model's live quality sketch.
func (m *Monitor) ObserveQuality(name string, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if mm, ok := m.models[name]; ok && mm.quality != nil {
		mm.quality.Observe(v)
	}
}

// NoteRefresh records that a model's parameters were just refreshed at
// the given registry version over totalRows training rows using
// strategy. The live window is folded into the baseline with an exact
// sketch merge — the factorized trick, no rescan — and reset, staleness
// counters restart, and the updated lineage (deep copy) is returned for
// the caller to persist alongside the new version. version <= 0 keeps
// the current version; empty strategy and zero totalRows keep the
// previous values. Returns nil when the model is unknown or has no
// baseline to advance.
func (m *Monitor) NoteRefresh(name string, version int, strategy string, totalRows int64) *Lineage {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	mm, ok := m.models[name]
	if !ok {
		return nil
	}
	now := m.cfg.now()
	if version > 0 {
		mm.version = version
	}
	mm.rowsSince = 0
	mm.dimUpdates = 0
	mm.refreshedAt = now
	b := baselineOf(mm.lin)
	if b == nil {
		return nil
	}
	for i := range b.Columns {
		b.Columns[i].Sketch.Merge(&mm.window[i]) //nolint:errcheck // layouts match by construction
		reset(&mm.window[i])
	}
	if b.Quality != nil && mm.quality != nil {
		b.Quality.Merge(mm.quality) //nolint:errcheck // layouts match by construction
		reset(mm.quality)
	}
	b.CapturedAtUnix = now.Unix()
	if len(b.Columns) > 0 { // a restored lineage may hold none
		b.Rows = b.Columns[0].Sketch.Count
	}
	mm.lin.TrainedAtUnix = now.Unix()
	if totalRows > 0 {
		mm.lin.TrainingRows = totalRows
	}
	if strategy != "" {
		mm.lin.Strategy = strategy
	}
	return mm.lin.Clone()
}

func reset(s *Sketch) {
	s.Count, s.Mean, s.M2, s.Min, s.Max = 0, 0, 0, 0, 0
	for i := range s.Bins {
		s.Bins[i] = 0
	}
}

// Health evaluates one model's current health, firing a verdict
// transition event if the verdict changed since the last evaluation.
func (m *Monitor) Health(name string) (Health, bool) {
	if m == nil {
		return Health{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	mm, ok := m.models[name]
	if !ok {
		return Health{}, false
	}
	return m.healthLocked(mm), true
}

// HealthAll evaluates every attached model, sorted by name, firing
// verdict transition events as it goes.
func (m *Monitor) HealthAll() HealthList {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(HealthList, 0, len(m.models))
	for _, mm := range m.models {
		out = append(out, m.healthLocked(mm))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// CheckAll re-evaluates every model's verdict so transitions fire
// promptly after an ingest batch rather than waiting for a scrape.
func (m *Monitor) CheckAll() {
	if m == nil {
		return
	}
	m.HealthAll()
}
