package experiments

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
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

// tinyResults runs every experiment on the tiny profile once per test
// binary; the tests below share its rows.
var tinyResults = sync.OnceValues(func() (map[string][]Row, error) {
	dir, err := os.MkdirTemp("", "experiments-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	h := New(dir, tiny, nil)
	results := make(map[string][]Row)
	for _, name := range Experiments() {
		if results[name], err = h.Run(name); err != nil {
			return nil, err
		}
	}
	return results, nil
})

func tinyRows(t *testing.T) map[string][]Row {
	t.Helper()
	results, err := tinyResults()
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// tinyCountsFile holds the exact counts of every row of every experiment
// on the tiny profile. Regenerate it with
// FACTORML_GOLDEN_UPDATE=1 go test -run TestCountGolden ./internal/experiments
// — only when a change is meant to move a count, and say so where the
// change is described.
const tinyCountsFile = "testdata/tiny_counts.csv"

// TestCountGolden pins each experiment's rows — their number, order,
// series and x values — and each row's multiplications, page reads and
// page writes: a refactor of the harness or of a trainer that keeps the
// work must not move one of them.
func TestCountGolden(t *testing.T) {
	results := tinyRows(t)
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	w.Write([]string{"figure", "series", "x", "m_mults", "s_mults", "f_mults", "m_reads", "s_reads", "f_reads", "m_writes"})
	for _, name := range Experiments() {
		for _, r := range results[name] {
			if r.Time[0] <= 0 || r.Time[1] <= 0 || r.Time[2] <= 0 {
				t.Errorf("row with zero time: %+v", r)
			}
			rec := []string{r.Figure, r.Series, strconv.FormatFloat(r.X, 'g', -1, 64)}
			for _, col := range [][3]int64{r.Mul, r.Reads} {
				for _, n := range col {
					rec = append(rec, strconv.FormatInt(n, 10))
				}
			}
			w.Write(append(rec, strconv.FormatInt(r.MWrites, 10)))
		}
	}
	w.Flush()
	if os.Getenv("FACTORML_GOLDEN_UPDATE") != "" {
		if err := os.MkdirAll(filepath.Dir(tinyCountsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tinyCountsFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Skipf("wrote %s", tinyCountsFile)
	}

	raw, err := os.ReadFile(tinyCountsFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "\n")
	got := strings.Split(buf.String(), "\n")
	for i := range max(len(got), len(want)) {
		g, w := "(none)", "(none)"
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %s\n want %s", tinyCountsFile, i+1, g, w)
		}
	}
}

// The defining shape of Figs 3-6 (a) and (b): F makes fewer
// multiplications than S, and its saving grows with rr and with dR. M
// makes as many as S, so the ratio stands for M/F too.
func TestSavingsGrowWithRRAndDR(t *testing.T) {
	results := tinyRows(t)
	for _, fig := range []string{"Fig3a", "Fig3b", "Fig4a", "Fig4b", "Fig5a", "Fig5b", "Fig6a", "Fig6b"} {
		prev := map[string]float64{} // S/F ratio at the series' last x
		for _, r := range results[fig] {
			m, s, f := r.Mul[0], r.Mul[1], r.Mul[2]
			if m != s {
				t.Errorf("%s %s x=%g: M mults %d != S mults %d", fig, r.Series, r.X, m, s)
			}
			if f >= s {
				t.Errorf("%s %s x=%g: F mults %d not below S mults %d", fig, r.Series, r.X, f, s)
			}
			ratio := float64(s) / float64(f)
			if ratio < prev[r.Series] {
				t.Errorf("%s %s: S/F mult ratio fell from %.3f to %.3f at x=%g", fig, r.Series, prev[r.Series], ratio, r.X)
			}
			prev[r.Series] = ratio
		}
		if len(prev) == 0 {
			t.Errorf("%s: no rows", fig)
		}
	}
}

func TestFig3aProducesRows(t *testing.T) {
	rows := tinyRows(t)["Fig3a"]
	if len(rows) != 2*len(tiny.RRs) {
		t.Fatalf("got %d rows, want %d", len(rows), 2*len(tiny.RRs))
	}
	for _, r := range rows {
		if r.Time[0] <= 0 || r.Time[1] <= 0 || r.Time[2] <= 0 {
			t.Fatalf("row with zero time: %+v", r)
		}
		if r.Mul[2] >= r.Mul[1] {
			t.Fatalf("F mults %d not below S mults %d at rr=%g", r.Mul[2], r.Mul[1], r.X)
		}
	}
}

// The defining shape of Fig 3a: F's multiplication saving grows with rr.
func TestFig3aSavingsGrowWithRR(t *testing.T) {
	// Within each series, the S/F mult ratio must be non-decreasing in rr.
	bySeries := map[string][]Row{}
	for _, r := range tinyRows(t)["Fig3a"] {
		bySeries[r.Series] = append(bySeries[r.Series], r)
	}
	for series, rs := range bySeries {
		prev := 0.0
		for _, r := range rs {
			ratio := float64(r.Mul[1]) / float64(r.Mul[2])
			if ratio < prev-0.01 {
				t.Fatalf("%s: op ratio fell from %.3f to %.3f at rr=%g", series, prev, ratio, r.X)
			}
			prev = ratio
		}
	}
}

func TestMultiwayFigures(t *testing.T) {
	results := tinyRows(t)
	if rows := results["Fig4a"]; len(rows) != len(tiny.RRs) {
		t.Fatalf("Fig4a rows = %d", len(rows))
	}
	if rows := results["Fig6c"]; len(rows) != len(tiny.NHs) {
		t.Fatalf("Fig6c rows = %d", len(rows))
	}
}

func TestNNFigures(t *testing.T) {
	for _, r := range tinyRows(t)["Fig5a"] {
		if r.Mul[2] >= r.Mul[1] {
			t.Fatalf("F-NN mults %d not below S-NN %d", r.Mul[2], r.Mul[1])
		}
	}
}

func TestTables(t *testing.T) {
	results := tinyRows(t)
	// One row per simulated dataset: eight dense, three one-hot.
	for name, want := range map[string]int{"TableVI": 8, "TableVII": 3} {
		if rows := results[name]; len(rows) != want {
			t.Fatalf("%s rows = %d, want %d", name, len(rows), want)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	h := New(t.TempDir(), tiny, nil)
	if _, err := h.Run("nope"); err == nil {
		t.Fatal("unknown experiment should fail")
	}
	if len(Experiments()) != 14 {
		t.Fatalf("Experiments() = %v", Experiments())
	}
}

func TestReportWriters(t *testing.T) {
	rows := tinyRows(t)["Fig3c"]
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
