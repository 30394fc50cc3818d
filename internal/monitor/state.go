package monitor

import (
	"sort"
	"time"
)

// Checkpoint support: a Monitor's live windows are part of the stream's
// crash-recovery state. Snapshot captures every attached model's
// mutable fields in a JSON-serializable form; Restore rebuilds the
// exact monitoring state on a fresh Monitor during recovery, so a
// recovered process reports the same drift/staleness picture as the
// one that crashed.

// ModelState is one attached model's live monitoring state.
type ModelState struct {
	Name            string   `json:"name"`
	Kind            string   `json:"kind"`
	Version         int      `json:"version"`
	Lineage         *Lineage `json:"lineage,omitempty"`
	Window          []Sketch `json:"window,omitempty"`
	Quality         *Sketch  `json:"quality,omitempty"`
	RowsSince       int64    `json:"rows_since"`
	DimUpdates      int64    `json:"dim_updates"`
	RefreshedAtUnix int64    `json:"refreshed_at_unix"`
	Samples         uint64   `json:"samples"`
	LastVerdict     Verdict  `json:"last_verdict,omitempty"`
}

// State is the monitor's full checkpointable state.
type State struct {
	Models []ModelState `json:"models"`
}

func cloneSketch(s *Sketch) Sketch {
	c := *s
	if s.Bins != nil {
		c.Bins = append([]int64(nil), s.Bins...)
	}
	return c
}

// Snapshot returns a deep copy of the live monitoring state, sorted by
// model name. Safe on a nil *Monitor, where it returns nil.
func (m *Monitor) Snapshot() *State {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := &State{}
	for _, name := range sortedModelNames(m.models) {
		mm := m.models[name]
		ms := ModelState{
			Name:            mm.name,
			Kind:            mm.kind,
			Version:         mm.version,
			Lineage:         mm.lin.Clone(),
			RowsSince:       mm.rowsSince,
			DimUpdates:      mm.dimUpdates,
			RefreshedAtUnix: mm.refreshedAt.Unix(),
			Samples:         mm.samples,
			LastVerdict:     mm.lastVerdict,
		}
		for i := range mm.window {
			ms.Window = append(ms.Window, cloneSketch(&mm.window[i]))
		}
		if mm.quality != nil {
			q := cloneSketch(mm.quality)
			ms.Quality = &q
		}
		st.Models = append(st.Models, ms)
	}
	return st
}

// Restore re-attaches every model from a Snapshot and overlays its live
// window, quality, and staleness state. Models already attached under
// the same names are replaced. Safe no-ops on a nil receiver or state.
func (m *Monitor) Restore(st *State) {
	if m == nil || st == nil {
		return
	}
	for _, ms := range st.Models {
		m.Attach(ms.Name, ms.Kind, ms.Version, ms.Lineage)
		m.mu.Lock()
		mm := m.models[ms.Name]
		if len(ms.Window) == len(mm.window) {
			for i := range ms.Window {
				mm.window[i] = cloneSketch(&ms.Window[i])
			}
		}
		if ms.Quality != nil && mm.quality != nil {
			q := cloneSketch(ms.Quality)
			mm.quality = &q
		}
		mm.rowsSince = ms.RowsSince
		mm.dimUpdates = ms.DimUpdates
		mm.refreshedAt = time.Unix(ms.RefreshedAtUnix, 0)
		mm.samples = ms.Samples
		mm.lastVerdict = ms.LastVerdict
		m.mu.Unlock()
	}
}

func sortedModelNames(models map[string]*modelMon) []string {
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
