package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"factorml/internal/factor"
	"factorml/internal/parallel"
)

// passTracer aggregates factor.PassEvents and parallel.WorkerEvents for
// the lifetime of one training run. Installed by -trace, it produces the
// per-pass phase-timing breakdown (TRACE_train.json plus a printed
// table) that attributes training wall time to E-step/SGD folds, cache
// fills, scans and ordered merges, and exposes worker skew.
type passTracer struct {
	mu      sync.Mutex
	passes  map[string]*passAgg
	workers map[int]*workerAgg
}

type passAgg struct {
	Pass    string  `json:"pass"`
	Phase   string  `json:"phase"`
	Count   int64   `json:"count"`
	Rows    int64   `json:"rows"`
	Chunks  int64   `json:"chunks"`
	WallMs  float64 `json:"wall_ms"`
	FoldMs  float64 `json:"fold_ms"`
	MergeMs float64 `json:"merge_ms"`
	Errors  int64   `json:"errors"`
}

type workerAgg struct {
	Worker int     `json:"worker"`
	Chunks int64   `json:"chunks"`
	BusyMs float64 `json:"busy_ms"`
}

// traceReport is the TRACE_train.json document, keyed by the strategy
// the run executed (after auto resolution) so sweeps over -algo can be
// compared side by side.
type traceReport struct {
	Model   string       `json:"model"`
	Algo    string       `json:"algo"`
	Workers int          `json:"workers"`
	Passes  []*passAgg   `json:"passes"`
	Pool    []*workerAgg `json:"pool_workers,omitempty"`
}

// newPassTracer installs the process-wide pass and worker observers and
// starts aggregating. Call stop before reading the aggregates.
func newPassTracer() *passTracer {
	pt := &passTracer{passes: map[string]*passAgg{}, workers: map[int]*workerAgg{}}
	factor.SetObserver(func(ev factor.PassEvent) {
		pt.mu.Lock()
		defer pt.mu.Unlock()
		key := ev.Pass + "\x00" + ev.Phase
		a := pt.passes[key]
		if a == nil {
			a = &passAgg{Pass: ev.Pass, Phase: ev.Phase}
			pt.passes[key] = a
		}
		a.Count++
		a.Rows += ev.Rows
		a.Chunks += ev.Chunks
		a.WallMs += float64(ev.Wall.Nanoseconds()) / 1e6
		a.FoldMs += float64(ev.Fold.Nanoseconds()) / 1e6
		a.MergeMs += float64(ev.Merge.Nanoseconds()) / 1e6
		if ev.Err {
			a.Errors++
		}
	})
	parallel.SetWorkerObserver(func(ev parallel.WorkerEvent) {
		pt.mu.Lock()
		defer pt.mu.Unlock()
		w := pt.workers[ev.Worker]
		if w == nil {
			w = &workerAgg{Worker: ev.Worker}
			pt.workers[ev.Worker] = w
		}
		w.Chunks += ev.Chunks
		w.BusyMs += float64(ev.Busy.Nanoseconds()) / 1e6
	})
	return pt
}

// stop removes the observers; further passes are untracked.
func (pt *passTracer) stop() {
	factor.SetObserver(nil)
	parallel.SetWorkerObserver(nil)
}

// report assembles the aggregates, ordered by descending wall time.
func (pt *passTracer) report(model, algo string, workers int) *traceReport {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	rep := &traceReport{Model: model, Algo: algo, Workers: workers}
	for _, a := range pt.passes {
		rep.Passes = append(rep.Passes, a)
	}
	sort.Slice(rep.Passes, func(i, j int) bool {
		if rep.Passes[i].WallMs != rep.Passes[j].WallMs {
			return rep.Passes[i].WallMs > rep.Passes[j].WallMs
		}
		return rep.Passes[i].Pass+rep.Passes[i].Phase < rep.Passes[j].Pass+rep.Passes[j].Phase
	})
	for _, w := range pt.workers {
		rep.Pool = append(rep.Pool, w)
	}
	sort.Slice(rep.Pool, func(i, j int) bool { return rep.Pool[i].Worker < rep.Pool[j].Worker })
	return rep
}

// write saves the report as JSON and prints the phase-timing table.
func (pt *passTracer) write(out io.Writer, path, model, algo string, workers int) error {
	rep := pt.report(model, algo, workers)
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "pass phase timing (%s, algo %s; written to %s):\n", model, algo, path)
	fmt.Fprintf(out, "  %-18s %-11s %6s %10s %8s %10s %10s %10s\n",
		"pass", "phase", "count", "rows", "chunks", "wall(ms)", "fold(ms)", "merge(ms)")
	for _, a := range rep.Passes {
		fmt.Fprintf(out, "  %-18s %-11s %6d %10d %8d %10.1f %10.1f %10.1f\n",
			a.Pass, a.Phase, a.Count, a.Rows, a.Chunks, a.WallMs, a.FoldMs, a.MergeMs)
	}
	if len(rep.Pool) > 1 {
		var minB, maxB float64
		for i, w := range rep.Pool {
			if i == 0 || w.BusyMs < minB {
				minB = w.BusyMs
			}
			if w.BusyMs > maxB {
				maxB = w.BusyMs
			}
		}
		fmt.Fprintf(out, "  pool: %d workers, busy %.1f–%.1f ms (skew %.2fx)\n",
			len(rep.Pool), minB, maxB, skewRatio(maxB, minB))
	}
	return nil
}

func skewRatio(maxB, minB float64) float64 {
	if minB <= 0 {
		return 0
	}
	return maxB / minB
}

// parallelWorkers resolves the -workers knob the same way the trainers
// do, so the trace artifact records the effective pool size.
func parallelWorkers(n int) int { return parallel.Workers(n) }
