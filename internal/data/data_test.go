package data

import (
	"math/rand"
	"testing"

	"factorml/internal/join"
	"factorml/internal/storage"
)

func openDB(t *testing.T) *storage.Database {
	t.Helper()
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestGenerateBinaryShapes(t *testing.T) {
	db := openDB(t)
	spec, err := Generate(db, "g", SynthConfig{NS: 500, NR: []int{50}, DS: 3, DR: []int{4}, WithTarget: true})
	if err != nil {
		t.Fatal(err)
	}
	if spec.S.NumTuples() != 500 || spec.Rs[0].NumTuples() != 50 {
		t.Fatalf("cardinalities: S=%d R=%d", spec.S.NumTuples(), spec.Rs[0].NumTuples())
	}
	if spec.JoinedWidth() != 7 {
		t.Fatalf("JoinedWidth = %d, want 7", spec.JoinedWidth())
	}
	if !spec.S.Schema().HasTarget {
		t.Fatal("fact table should carry a target")
	}
	// Every fact tuple must join (fk integrity).
	n := 0
	err = join.Stream(spec, func(_ int64, x []float64, y float64) error {
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 500 {
		t.Fatalf("join produced %d tuples, want 500", n)
	}
}

func TestGenerateMultiway(t *testing.T) {
	db := openDB(t)
	spec, err := Generate(db, "m", SynthConfig{NS: 300, NR: []int{20, 10}, DS: 2, DR: []int{3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Rs) != 2 {
		t.Fatalf("got %d dimension tables, want 2", len(spec.Rs))
	}
	if spec.JoinedWidth() != 9 {
		t.Fatalf("JoinedWidth = %d, want 9", spec.JoinedWidth())
	}
	n := 0
	if err := join.Stream(spec, func(int64, []float64, float64) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("join produced %d tuples, want 300", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	db := openDB(t)
	cfg := SynthConfig{NS: 100, NR: []int{10}, DS: 2, DR: []int{2}, Seed: 42, WithTarget: true}
	s1, err := Generate(db, "a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Generate(db, "b", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var rows1, rows2 [][]float64
	collect := func(sp *join.Spec, dst *[][]float64) {
		err := join.Stream(sp, func(_ int64, x []float64, y float64) error {
			*dst = append(*dst, append(append([]float64{}, x...), y))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	collect(s1, &rows1)
	collect(s2, &rows2)
	for i := range rows1 {
		for j := range rows1[i] {
			if rows1[i][j] != rows2[i][j] {
				t.Fatalf("row %d col %d differs across same-seed generations", i, j)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	db := openDB(t)
	if _, err := Generate(db, "x", SynthConfig{NS: 0, NR: []int{1}, DR: []int{1}}); err == nil {
		t.Fatal("NS=0 should fail")
	}
	if _, err := Generate(db, "y", SynthConfig{NS: 1, NR: []int{1, 2}, DR: []int{1}}); err == nil {
		t.Fatal("NR/DR mismatch should fail")
	}
	if _, err := Generate(db, "z", SynthConfig{NS: 1, NR: []int{0}, DR: []int{1}}); err == nil {
		t.Fatal("NR=0 should fail")
	}
}

func TestShapeByName(t *testing.T) {
	s, err := ShapeByName("Walmart")
	if err != nil {
		t.Fatal(err)
	}
	if s.NS != 421570 || s.DS != 3 || s.NR != 2340 || s.DR != 9 {
		t.Fatalf("Walmart shape = %+v", s)
	}
	if _, err := ShapeByName("nope"); err == nil {
		t.Fatal("unknown shape should fail")
	}
	m, _ := ShapeByName("Movies3way")
	if !m.Multi() {
		t.Fatal("Movies3way must be multi-way")
	}
}

func TestGenerateShapeScaledPreservesRR(t *testing.T) {
	db := openDB(t)
	shape, _ := ShapeByName("Walmart")
	spec, err := GenerateShape(db, shape, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	nS := float64(spec.S.NumTuples())
	nR := float64(spec.Rs[0].NumTuples())
	origRR := float64(shape.NS) / float64(shape.NR)
	gotRR := nS / nR
	if gotRR < origRR*0.8 || gotRR > origRR*1.25 {
		t.Fatalf("tuple ratio %v too far from original %v", gotRR, origRR)
	}
}

func TestGenerateShapeSparse(t *testing.T) {
	db := openDB(t)
	shape, _ := ShapeByName("MoviesSparse")
	spec, err := GenerateShape(db, shape, 0.002, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Every feature must be 0/1 with exactly one 1 per ~8-wide group.
	groups := oneHotGroups(shape.DR)
	wantOnes := len(oneHotGroups(shape.DS)) + len(groups)
	err = join.Stream(spec, func(_ int64, x []float64, _ float64) error {
		ones := 0
		for _, v := range x {
			if v == 1 {
				ones++
			} else if v != 0 {
				t.Fatalf("non-binary feature %v in sparse dataset", v)
			}
		}
		if ones != wantOnes {
			t.Fatalf("got %d ones, want %d", ones, wantOnes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGenerateShapeBadScale(t *testing.T) {
	db := openDB(t)
	shape, _ := ShapeByName("Walmart")
	if _, err := GenerateShape(db, shape, 0, 1); err == nil {
		t.Fatal("scale 0 should fail")
	}
	if _, err := GenerateShape(db, shape, 1.5, 1); err == nil {
		t.Fatal("scale > 1 should fail")
	}
}

func TestOneHotGroups(t *testing.T) {
	if got := oneHotGroups(0); got != nil {
		t.Fatalf("oneHotGroups(0) = %v", got)
	}
	sizes := oneHotGroups(21)
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != 21 {
		t.Fatalf("group sizes %v do not sum to 21", sizes)
	}
	if len(sizes) != 2 {
		t.Fatalf("oneHotGroups(21) = %v, want 2 groups", sizes)
	}
}

func TestOneHotFill(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 10)
	for i := range x {
		x[i] = 99
	}
	groups := oneHotGroups(10)
	oneHotFill(x, groups, rng)
	ones := 0
	for _, v := range x {
		if v == 1 {
			ones++
		} else if v != 0 {
			t.Fatalf("unexpected value %v", v)
		}
	}
	if ones != len(groups) {
		t.Fatalf("%d ones, want %d", ones, len(groups))
	}
}
