// Package monitor watches model and data health for the serving stack:
// per-column distribution sketches maintained incrementally from the
// stream change feed, training-time baseline snapshots persisted with
// each model version (lineage), PSI drift scoring of the live window
// against the serving model's baseline, sampled prediction-quality
// telemetry, and staleness tracking (rows since refresh, refresh age).
//
// The package applies the paper's factorized-maintenance discipline to
// observability itself: a sketch update is O(1) per ingested row, and a
// refresh folds the live window into the baseline with an exact sketch
// merge — no rescan of the dataset, ever. Everything here is
// dependency-free (standard library plus the repo's own internal
// packages) and passive: monitoring never changes a trained model or a
// prediction, a guarantee pinned by the equivalence tests, and a nil
// *Monitor is valid and free, mirroring the trace package's discipline.
package monitor
