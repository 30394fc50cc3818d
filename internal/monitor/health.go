package monitor

import (
	"context"
	"fmt"
	"log/slog"

	"factorml/internal/metrics"
)

// Verdict is a model's health verdict, its JSON and label value.
type Verdict string

// Model health verdicts, strongest first: drift beats staleness beats
// fresh; a model with no baseline lineage can only report staleness or
// "unmonitored".
const (
	VerdictFresh       Verdict = "fresh"
	VerdictDrifting    Verdict = "drifting"
	VerdictStale       Verdict = "stale"
	VerdictUnmonitored Verdict = "unmonitored"
)

// ColumnHealth is one joined column's drift reading: the PSI of its
// live window against the model's baseline and the status that PSI
// earns under the configured thresholds ("ok", "warn", or "drift" —
// "ok" is also reported while the window is below the evidence floor).
type ColumnHealth struct {
	Table        string  `json:"table"`
	Name         string  `json:"name"`
	PSI          float64 `json:"psi"`
	Status       string  `json:"status"`
	BaselineMean float64 `json:"baseline_mean"`
	LiveMean     float64 `json:"live_mean"`
	LiveRows     int64   `json:"live_rows"`
}

// Health is one model's health verdict with the evidence behind it.
type Health struct {
	Model                  string         `json:"model"`
	Kind                   string         `json:"kind"`
	Version                int            `json:"version"`
	Verdict                Verdict        `json:"verdict"`
	MaxPSI                 float64        `json:"max_psi"`
	MeanPSI                float64        `json:"mean_psi"`
	QualityPSI             float64        `json:"quality_psi"`
	QualityMetric          string         `json:"quality_metric,omitempty"`
	RowsSinceRefresh       int64          `json:"rows_since_refresh"`
	DimUpdatesSinceRefresh int64          `json:"dim_updates_since_refresh"`
	RefreshAgeSeconds      float64        `json:"refresh_age_seconds"`
	TrainedAtUnix          int64          `json:"trained_at_unix,omitempty"`
	TrainingRows           int64          `json:"training_rows,omitempty"`
	Strategy               string         `json:"strategy,omitempty"`
	Columns                []ColumnHealth `json:"columns,omitempty"`
	Reasons                []string       `json:"reasons,omitempty"`
}

// healthLocked evaluates mm under m.mu and fires a verdict-transition
// event when the verdict moved since the last evaluation.
func (m *Monitor) healthLocked(mm *modelMon) Health {
	h := Health{
		Model:                  mm.name,
		Kind:                   mm.kind,
		Version:                mm.version,
		RowsSinceRefresh:       mm.rowsSince,
		DimUpdatesSinceRefresh: mm.dimUpdates,
		RefreshAgeSeconds:      m.cfg.now().Sub(mm.refreshedAt).Seconds(),
	}
	if mm.lin != nil {
		h.TrainedAtUnix = mm.lin.TrainedAtUnix
		h.TrainingRows = mm.lin.TrainingRows
		h.Strategy = mm.lin.Strategy
	}
	b := baselineOf(mm.lin)
	stale := m.cfg.StalenessMaxRows > 0 && mm.rowsSince >= m.cfg.StalenessMaxRows
	if b == nil {
		if stale {
			h.Verdict = VerdictStale
			h.Reasons = append(h.Reasons, fmt.Sprintf("%d rows ingested since last refresh (max %d)",
				mm.rowsSince, m.cfg.StalenessMaxRows))
		} else {
			h.Verdict = VerdictUnmonitored
			h.Reasons = append(h.Reasons, "no baseline lineage persisted for this model version")
		}
		m.transitionLocked(mm, h)
		return h
	}
	h.Columns = make([]ColumnHealth, len(b.Columns))
	var sum float64
	var scored int
	drift := false
	for i := range b.Columns {
		col := &b.Columns[i]
		live := &mm.window[i]
		psi := PSI(&col.Sketch, live)
		ch := ColumnHealth{
			Table:        col.Table,
			Name:         col.Name,
			PSI:          psi,
			Status:       "ok",
			BaselineMean: col.Sketch.Mean,
			LiveMean:     live.Mean,
			LiveRows:     live.Count,
		}
		if live.Count >= m.cfg.MinWindowRows {
			scored++
			sum += psi
			if psi > h.MaxPSI {
				h.MaxPSI = psi
			}
			switch {
			case psi >= m.cfg.DriftPSI:
				ch.Status = "drift"
				drift = true
				h.Reasons = append(h.Reasons, fmt.Sprintf("column %s.%s PSI %.3f >= %.3f",
					col.Table, col.Name, psi, m.cfg.DriftPSI))
			case psi >= m.cfg.DriftWarnPSI:
				ch.Status = "warn"
				h.Reasons = append(h.Reasons, fmt.Sprintf("column %s.%s PSI %.3f >= warn %.3f",
					col.Table, col.Name, psi, m.cfg.DriftWarnPSI))
			}
		}
		h.Columns[i] = ch
	}
	if scored > 0 {
		h.MeanPSI = sum / float64(scored)
	}
	if b.Quality != nil && mm.quality != nil {
		h.QualityMetric = b.QualityMetric
		h.QualityPSI = PSI(b.Quality, mm.quality)
		if mm.quality.Count >= m.cfg.MinWindowRows {
			if h.QualityPSI > h.MaxPSI {
				h.MaxPSI = h.QualityPSI
			}
			if h.QualityPSI >= m.cfg.DriftPSI {
				drift = true
				h.Reasons = append(h.Reasons, fmt.Sprintf("prediction quality (%s) PSI %.3f >= %.3f",
					b.QualityMetric, h.QualityPSI, m.cfg.DriftPSI))
			}
		}
	}
	switch {
	case drift:
		h.Verdict = VerdictDrifting
	case stale:
		h.Verdict = VerdictStale
		h.Reasons = append(h.Reasons, fmt.Sprintf("%d rows ingested since last refresh (max %d)",
			mm.rowsSince, m.cfg.StalenessMaxRows))
	default:
		h.Verdict = VerdictFresh
	}
	m.transitionLocked(mm, h)
	return h
}

// transitionLocked logs an event when mm's verdict moved. The very
// first evaluation seeds the state silently — a transition is a change,
// not an initial reading.
func (m *Monitor) transitionLocked(mm *modelMon, h Health) {
	prev := mm.lastVerdict
	mm.lastVerdict = h.Verdict
	if prev == "" || prev == h.Verdict {
		return
	}
	lvl := slog.LevelWarn
	if h.Verdict == VerdictFresh {
		lvl = slog.LevelInfo
	}
	m.cfg.Logger.Log(context.Background(), lvl, "model health verdict changed",
		"model", mm.name, "kind", mm.kind, "version", h.Version,
		"from", prev, "to", h.Verdict,
		"max_psi", h.MaxPSI, "quality_psi", h.QualityPSI,
		"rows_since_refresh", h.RowsSinceRefresh)
}

// HealthList is every monitored model's health, the "health" section of
// /statsz and /metrics.
type HealthList []Health

// Samples emits per-model drift and staleness gauges: the max-column PSI
// (the drift score the verdict routes on), the quality PSI, rows since
// refresh, refresh age, and a one-hot verdict gauge labeled with the
// verdict string.
func (l HealthList) Samples(emit metrics.Emit) {
	for _, h := range l {
		model := [2]string{"model", h.Model}
		emit.Gauge("factorml_model_drift_psi", "Max per-column PSI of the live window against the model's baseline.", h.MaxPSI, model)
		emit.Gauge("factorml_model_quality_psi", "PSI of sampled prediction quality against the training baseline.", h.QualityPSI, model)
		emit.Gauge("factorml_model_rows_since_refresh", "Fact rows ingested since the model's last refresh.", float64(h.RowsSinceRefresh), model)
		emit.Gauge("factorml_model_refresh_age_seconds", "Seconds since the model's baseline was captured or refreshed.", h.RefreshAgeSeconds, model)
		emit.Gauge("factorml_model_health", "Model health verdict (value is always 1; the verdict is in the labels).",
			1, model, [2]string{"verdict", string(h.Verdict)})
	}
}
