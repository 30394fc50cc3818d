// Command experiments regenerates the paper's evaluation: every figure
// (3a-c, 4a-c, 5a-c, 6a-c) and both real-dataset tables (VI, VII).
//
// Usage:
//
//	experiments [-profile quick|paper] [-exp all|Fig3a|…|TableVII]
//	            [-out results] [-work /tmp/factorml-work]
//
// For each experiment it writes <out>/<name>.csv and appends a markdown
// section to <out>/RESULTS.md, printing progress rows to stderr as it goes.
// The quick profile finishes in minutes; the paper profile uses the paper's
// cardinalities (nS up to 5·10⁶) and takes hours.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"factorml/internal/experiments"
)

func main() {
	profileName := flag.String("profile", "quick", "workload profile: quick or paper")
	exp := flag.String("exp", "all", "experiment to run (all, Fig3a..Fig6c, TableVI, TableVII)")
	out := flag.String("out", "results", "output directory for CSV and markdown")
	work := flag.String("work", "", "scratch directory for databases (default: a temp dir)")
	flag.Parse()

	p, err := profile(*profileName)
	if err == nil {
		err = run(p, *exp, *out, *work)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// profile resolves a -profile name.
func profile(name string) (experiments.Profile, error) {
	switch name {
	case "quick":
		return experiments.Quick, nil
	case "paper":
		return experiments.PaperProfile, nil
	}
	return experiments.Profile{}, fmt.Errorf("unknown profile %q (quick or paper)", name)
}

// run runs exp ("all" for every experiment) at profile p, writing each
// experiment's CSV and RESULTS.md under out and databases under work (a
// temp dir when "").
func run(p experiments.Profile, exp, out, work string) error {
	if work == "" {
		dir, err := os.MkdirTemp("", "factorml-work-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		work = dir
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	h := experiments.New(work, p, os.Stderr)

	names := []string{exp}
	if exp == "all" {
		names = experiments.Experiments()
	}
	results := make(map[string][]experiments.Row)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "== %s (profile %s) ==\n", name, p.Name)
		rows, err := h.Run(name)
		if err != nil {
			return err
		}
		results[name] = rows
		var csv bytes.Buffer
		if err := experiments.WriteCSV(&csv, rows); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(out, name+".csv"), csv.Bytes(), 0o666); err != nil {
			return err
		}
	}

	var md bytes.Buffer
	fmt.Fprintf(&md, "# Experiment results (profile: %s)\n\n", p.Name)
	fmt.Fprintf(&md, "Times are wall-clock per full training run; S/F and M/F are the\n")
	fmt.Fprintf(&md, "speedups of the factorized algorithm over the streaming and\n")
	fmt.Fprintf(&md, "materialized baselines (higher = F wins bigger).\n\n")
	if err := experiments.WriteAllMarkdown(&md, results); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "RESULTS.md"), md.Bytes(), 0o666)
}
