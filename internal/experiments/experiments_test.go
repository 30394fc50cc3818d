package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// tiny is a micro profile so experiment plumbing can be tested in
// milliseconds.
var tiny = Profile{
	Name:      "tiny",
	NR:        20,
	RRs:       []int{5, 10},
	DRs:       []int{2, 4},
	Ks:        []int{2},
	NHs:       []int{4},
	NSFixed:   200,
	NR2:       8,
	DR2:       2,
	GMMIters:  1,
	NNEpochs:  1,
	RealScale: 0.0005,
}

func newTinyHarness(t *testing.T) *Harness {
	t.Helper()
	return New(t.TempDir(), tiny, nil)
}

func TestFig3aProducesRows(t *testing.T) {
	h := newTinyHarness(t)
	rows, err := h.Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*len(tiny.RRs) {
		t.Fatalf("got %d rows, want %d", len(rows), 2*len(tiny.RRs))
	}
	for _, r := range rows {
		if r.FTime <= 0 || r.STime <= 0 || r.MTime <= 0 {
			t.Fatalf("row with zero time: %+v", r)
		}
		if r.FMul >= r.SMul {
			t.Fatalf("F mults %d not below S mults %d at rr=%g", r.FMul, r.SMul, r.X)
		}
	}
}

// The defining shape of Fig 3a: F's multiplication saving grows with rr.
func TestFig3aSavingsGrowWithRR(t *testing.T) {
	h := newTinyHarness(t)
	rows, err := h.Fig3a()
	if err != nil {
		t.Fatal(err)
	}
	// Within each series, the S/F mult ratio must be non-decreasing in rr.
	bySeries := map[string][]Row{}
	for _, r := range rows {
		bySeries[r.Series] = append(bySeries[r.Series], r)
	}
	for series, rs := range bySeries {
		prev := 0.0
		for _, r := range rs {
			ratio := float64(r.SMul) / float64(r.FMul)
			if ratio < prev-0.01 {
				t.Fatalf("%s: op ratio fell from %.3f to %.3f at rr=%g", series, prev, ratio, r.X)
			}
			prev = ratio
		}
	}
}

func TestMultiwayFigures(t *testing.T) {
	h := newTinyHarness(t)
	rows, err := h.Fig4a()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(tiny.RRs) {
		t.Fatalf("Fig4a rows = %d", len(rows))
	}
	rows, err = h.Fig6c()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(tiny.NHs) {
		t.Fatalf("Fig6c rows = %d", len(rows))
	}
}

func TestNNFigures(t *testing.T) {
	h := newTinyHarness(t)
	rows, err := h.Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FMul >= r.SMul {
			t.Fatalf("F-NN mults %d not below S-NN %d", r.FMul, r.SMul)
		}
	}
}

func TestTables(t *testing.T) {
	h := newTinyHarness(t)
	rows, err := h.TableVI()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(tableVIDatasets) {
		t.Fatalf("TableVI rows = %d, want %d", len(rows), len(tableVIDatasets))
	}
	rows, err = h.TableVII()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(tableVIIDatasets) {
		t.Fatalf("TableVII rows = %d, want %d", len(rows), len(tableVIIDatasets))
	}
}

func TestRunDispatch(t *testing.T) {
	h := newTinyHarness(t)
	if _, err := h.Run("Fig3c"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Run("nope"); err == nil {
		t.Fatal("unknown experiment should fail")
	}
	if len(Experiments()) != 14 {
		t.Fatalf("Experiments() = %v", Experiments())
	}
}

func TestReportWriters(t *testing.T) {
	h := newTinyHarness(t)
	rows, err := h.Fig3c()
	if err != nil {
		t.Fatal(err)
	}
	var csvBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if len(lines) != 1+len(rows) {
		t.Fatalf("csv has %d lines, want %d", len(lines), 1+len(rows))
	}
	if !strings.HasPrefix(lines[0], "figure,series,x") {
		t.Fatalf("csv header: %q", lines[0])
	}

	var mdBuf bytes.Buffer
	if err := WriteMarkdown(&mdBuf, "Fig3c", rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(mdBuf.String(), "| series |") {
		t.Fatalf("markdown: %q", mdBuf.String())
	}
	if err := WriteMarkdown(&mdBuf, "empty", nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteAllMarkdown(&mdBuf, map[string][]Row{"Fig3c": rows}); err != nil {
		t.Fatal(err)
	}
}
