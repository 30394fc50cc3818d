package monitor

import (
	"testing"

	"factorml/internal/join"
	"factorml/internal/storage"
)

// captureSpec builds S(sid, fk1; x0, x1; target) joined with R1(rid; r0):
// 8 fact rows referencing 2 dimension rows.
func captureSpec(t *testing.T) *join.Spec {
	t.Helper()
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	sTbl, err := db.CreateTable(&storage.Schema{
		Name: "S", Keys: []string{"sid", "fk1"}, Features: []string{"x0", "x1"}, HasTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rTbl, err := db.CreateTable(&storage.Schema{
		Name: "R1", Keys: []string{"rid"}, Features: []string{"r0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := rTbl.Append(&storage.Tuple{Keys: []int64{int64(i)}, Features: []float64{float64(100 + i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rTbl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := sTbl.Append(&storage.Tuple{
			Keys:     []int64{int64(i), int64(i % 2)},
			Features: []float64{float64(i), float64(10 * i)},
			Target:   float64(i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sTbl.Flush(); err != nil {
		t.Fatal(err)
	}
	sp := &join.Spec{S: sTbl, Rs: []*storage.Table{rTbl}}
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestCaptureBaseline(t *testing.T) {
	sp := captureSpec(t)
	score := func(x []float64, y float64) float64 { return x[0] + y }
	b, err := CaptureBaseline(sp, score, "output")
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows != 8 {
		t.Fatalf("rows = %d, want 8", b.Rows)
	}
	wantCols := [][2]string{{"S", "x0"}, {"S", "x1"}, {"R1", "r0"}}
	if len(b.Columns) != len(wantCols) {
		t.Fatalf("got %d columns, want %d", len(b.Columns), len(wantCols))
	}
	for i, w := range wantCols {
		c := b.Columns[i]
		if c.Table != w[0] || c.Name != w[1] {
			t.Fatalf("column %d = %s.%s, want %s.%s", i, c.Table, c.Name, w[0], w[1])
		}
		if c.Sketch.Count != 8 {
			t.Fatalf("column %s.%s count = %d, want 8", c.Table, c.Name, c.Sketch.Count)
		}
	}
	if b.Columns[0].Sketch.Min != 0 || b.Columns[0].Sketch.Max != 7 {
		t.Fatalf("S.x0 range = [%v, %v], want [0, 7]", b.Columns[0].Sketch.Min, b.Columns[0].Sketch.Max)
	}
	// R1.r0 takes only 100 and 101, 4 rows each.
	if b.Columns[2].Sketch.Min != 100 || b.Columns[2].Sketch.Max != 101 {
		t.Fatalf("R1.r0 range = [%v, %v], want [100, 101]", b.Columns[2].Sketch.Min, b.Columns[2].Sketch.Max)
	}
	// No observation may land in underflow/overflow: the histogram range
	// came from the same data.
	for _, c := range b.Columns {
		if c.Sketch.Bins[0] != 0 || c.Sketch.Bins[len(c.Sketch.Bins)-1] != 0 {
			t.Fatalf("column %s.%s has out-of-range bins: %v", c.Table, c.Name, c.Sketch.Bins)
		}
	}
	if b.Quality == nil || b.Quality.Count != 8 || b.QualityMetric != "output" {
		t.Fatalf("quality sketch = %+v (%q), want 8 scored rows", b.Quality, b.QualityMetric)
	}
	if b.Quality.Min != 0 || b.Quality.Max != 14 {
		t.Fatalf("quality range = [%v, %v], want [0, 14]", b.Quality.Min, b.Quality.Max)
	}
}

func TestCaptureBaselineNoScoreAndEmpty(t *testing.T) {
	sp := captureSpec(t)
	b, err := CaptureBaseline(sp, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if b.Quality != nil {
		t.Fatal("no score function should mean no quality sketch")
	}
	if len(b.Columns[0].Sketch.Bins) != DefaultBins+2 {
		t.Fatalf("a baseline sketch should have DefaultBins interior bins, got %d", len(b.Columns[0].Sketch.Bins))
	}
}
