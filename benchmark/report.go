package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	"factorml/internal/serve"
)

// engineStats reads the serving engine's counters the way an operator
// would, from /statsz.
func engineStats(l *liveServer) serve.Stats {
	var st serve.Stats
	resp, err := http.Get(l.ts.URL + "/statsz")
	if err != nil {
		return st
	}
	defer resp.Body.Close()
	_ = json.NewDecoder(resp.Body).Decode(&st) // a zero Stats shows up as zero metrics
	return st
}

// fingerprint describes where the run happened, one "key: value" per line.
func fingerprint(cfg config) []string {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	lines := []string{
		"commit: " + gitCommit(),
		"go: " + runtime.Version(),
		"cpu: " + cpu,
		fmt.Sprintf("nproc: %d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs: %d", runtime.GOMAXPROCS(0)),
		"kernel: " + kernel,
		fmt.Sprintf("filesystem of %s: %s", cfg.dir, fsType(cfg.dir)),
		fmt.Sprintf("scale: %g", cfg.scale),
		fmt.Sprintf("seed: %d", cfg.seed),
		"flush policy: FsyncEvery=1 (every acknowledged batch is fsynced)",
	}
	if runtime.NumCPU() < 2 {
		lines = append(lines, "WARNING: fewer than 2 CPUs, the HTTP clients and the server share a core")
	}
	return lines
}

// gitCommit reads the checked-out commit from .git without running git; a
// checkout that is not a repository reports "none".
func gitCommit() string {
	dir, err := os.Getwd()
	if err != nil {
		return "none"
	}
	for {
		head, err := os.ReadFile(filepath.Join(dir, ".git", "HEAD"))
		if err == nil {
			ref := strings.TrimSpace(string(head))
			if name, ok := strings.CutPrefix(ref, "ref: "); ok {
				if b, err := os.ReadFile(filepath.Join(dir, ".git", name)); err == nil {
					return strings.TrimSpace(string(b))
				}
				return name
			}
			return ref
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "none"
		}
		dir = parent
	}
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("type 0x%x", uint32(st.Type))
}

// printReport writes the human-readable report: environment, inputs,
// per-phase operation counts and every metric by name with its unit.
func printReport(w io.Writer, cfg config, sh *shape, res *result) {
	kind := "end-to-end (plain run, no spans recorded)"
	if cfg.trace {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== factorml benchmark: %s, %s\n", sh.name, kind)
	fmt.Fprintf(w, "why: %s\n", sh.why)
	for _, l := range fingerprint(cfg) {
		fmt.Fprintln(w, l)
	}
	clients := "2 predict clients, then 1 writer"
	if sh.concurrent {
		clients = "1 predict client beside 1 writer"
	}
	fmt.Fprintf(w, "load: closed loop, %s, one keep-alive connection each, in-process (generator lateness does not apply)\n", clients)
	fmt.Fprintf(w, "workers: training, refresh and serving at NumWorkers=1; telemetry off\n")
	fmt.Fprintf(w, "repetitions: the samples column counts set-ups, training rounds, requests, refreshes and recoveries; %d slices (seconds=%g)\n", sh.slices, cfg.seconds)
	fmt.Fprintf(w, "input hash: tables+log %s, request stream %s\n", res.dataHash, res.reqHash)
	fmt.Fprintf(w, "harness wall-clock: %.1f s (%s)\n", res.wall.Seconds(), strings.Join(res.phaseSecs, ", "))
	fmt.Fprintf(w, "machine gauge: fixed kernel took %.3f ms (median of %d readings at phase boundaries; about 2.8 ms on the undisturbed reference box); reported times are plain wall-clock\n",
		res.kernelMs, res.kernelSamples)
	if res.traceFile != "" {
		fmt.Fprintf(w, "trace file: %s\n", res.traceFile)
	}

	fmt.Fprintf(w, "\n%-16s %12s %10s\n", "phase", "ops_attempted", "ops_failed")
	for _, p := range res.phases {
		fmt.Fprintf(w, "%-16s %12d %10d", p.name, p.attempted, p.failed)
		if p.firstErr != "" {
			fmt.Fprintf(w, "   first: %s", p.firstErr)
		}
		fmt.Fprintln(w)
	}

	fmt.Fprintf(w, "\n%-36s %16s %-8s %8s  %s\n", "metric", "value", "unit", "samples", "note")
	row := func(m metric, note string) {
		n := ""
		if m.samples > 0 {
			n = fmt.Sprint(m.samples)
		}
		fmt.Fprintf(w, "%-36s %16.6g %-8s %8s  %s\n", m.name, m.value, m.unit, n, strings.TrimSpace(note+" "+m.note))
	}
	for _, m := range res.metrics {
		row(m, "")
	}
	for _, m := range res.ungated {
		row(m, "[no bound: e2e."+m.name+" in the traced run]")
	}
	fmt.Fprintln(w)
}

func printSpanTotals(w io.Writer, totals []spanTotals) {
	fmt.Fprintf(w, "%-28s %8s %14s %14s\n", "span", "count", "total_ms", "self_ms")
	for _, t := range totals {
		fmt.Fprintf(w, "%-28s %8d %14.3f %14.3f\n", t.Name, t.Count, t.TotalMs, t.SelfMs)
	}
	fmt.Fprintln(w)
}
