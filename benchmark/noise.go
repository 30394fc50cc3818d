package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the noise report reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method),
// which is what the acceptance check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return at(0.25), at(0.5), at(0.75)
}

// readRuns loads one metric series per metric name from a .jsonl file of
// run result lines; runs that were not correct are reported and skipped.
func readRuns(path string) (map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	series := make(map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var line struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !line.Correct {
			return nil, fmt.Errorf("%s holds a run that was not correct", path)
		}
		for name, m := range line.Metrics {
			series[name] = append(series[name], m.Value)
		}
	}
	return series, sc.Err()
}

// noiseReport prints the table of the noise study collected in dir and
// returns the process exit code: 1 when, for any workload and end-to-end
// metric, the gap between the two sets' medians (GAP) or either set's
// interquartile range over its median (SPREAD) exceeds the metric's bound,
// the two things the driver's acceptance check looks at. A set whose
// (max - min) / median exceeds the bound is marked "range" without failing:
// setup_s does not meet that and the contract does not let it be demoted.
func noiseReport(w io.Writer, dir string) int {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(w, "noise report:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		fmt.Fprintln(w, "noise report: BENCHMARK.json:", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "| workload | metric | unit | median A | median B | gap B vs A | IQR/median A | IQR/median B | (max-min)/median A | (max-min)/median B | bound | verdict |\n")
	fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|---|---|\n")
	for _, wl := range bf.Workloads {
		a, errA := readRuns(filepath.Join(dir, "A-"+wl.Name+".jsonl"))
		b, errB := readRuns(filepath.Join(dir, "B-"+wl.Name+".jsonl"))
		if errA != nil || errB != nil {
			fmt.Fprintf(w, "| %s | missing runs: %v %v |\n", wl.Name, errA, errB)
			code = 1
			continue
		}
		for _, m := range bf.EndToEnd {
			va, vb := a[m.Name], b[m.Name]
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(w, "| %s | %s | too few runs |\n", wl.Name, m.Name)
				code = 1
				continue
			}
			// spread returns a set's median, IQR/median and (max-min)/median.
			spread := func(v []float64) (med, iqr, rng float64) {
				q1, q2, q3 := quartiles(v)
				s := append([]float64(nil), v...)
				sort.Float64s(s)
				return q2, (q3 - q1) / q2, (s[len(s)-1] - s[0]) / q2
			}
			medA, iqrA, rngA := spread(va)
			medB, iqrB, rngB := spread(vb)
			// gap > 0 means set B is worse than set A.
			gap := (medB - medA) / medA
			if m.Better == "higher" {
				gap = -gap
			}
			var verdict []string
			if gap > m.Bound || -gap > m.Bound {
				verdict = append(verdict, "GAP")
			}
			if iqrA > m.Bound || iqrB > m.Bound {
				verdict = append(verdict, "SPREAD")
			}
			if len(verdict) > 0 {
				code = 1
			} else {
				verdict = append(verdict, "ok")
			}
			if rngA > m.Bound || rngB > m.Bound {
				verdict = append(verdict, "(range)")
			}
			fmt.Fprintf(w, "| %s | %s | %s | %.5g | %.5g | %+.1f%% | %.1f%% | %.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				wl.Name, m.Name, m.Unit, medA, medB, 100*gap, 100*iqrA, 100*iqrB, 100*rngA, 100*rngB, 100*m.Bound, strings.Join(verdict, " "))
		}
	}
	return code
}
