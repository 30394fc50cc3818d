package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"factorml/internal/experiments"
)

// micro is the smallest profile that reaches every experiment: one point
// per sweep value list.
var micro = experiments.Profile{
	Name:      "micro",
	NR:        10,
	RRs:       []int{2},
	DRs:       []int{2},
	Ks:        []int{2},
	NHs:       []int{2},
	NSFixed:   20,
	NR2:       4,
	DR2:       2,
	GMMIters:  1,
	NNEpochs:  1,
	RealScale: 0.0002,
}

func TestRunAllWritesEveryExperiment(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	if err := run(micro, "all", out, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for _, name := range experiments.Experiments() {
		b, err := os.ReadFile(filepath.Join(out, name+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(b), "figure,series,x") {
			t.Errorf("%s.csv starts %q", name, strings.SplitN(string(b), "\n", 2)[0])
		}
	}
	md, err := os.ReadFile(filepath.Join(out, "RESULTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var sections []string
	for _, line := range strings.Split(string(md), "\n") {
		if title, ok := strings.CutPrefix(line, "### "); ok {
			sections = append(sections, title)
		}
	}
	if !slices.Equal(sections, experiments.Experiments()) {
		t.Errorf("RESULTS.md sections %v, want %v", sections, experiments.Experiments())
	}
}

func TestUnknownNamesFail(t *testing.T) {
	if _, err := profile("nope"); err == nil {
		t.Error("unknown profile accepted")
	}
	if _, err := profile("quick"); err != nil {
		t.Error(err)
	}
	if err := run(micro, "nope", t.TempDir(), t.TempDir()); err == nil {
		t.Error("unknown experiment accepted")
	}
}
