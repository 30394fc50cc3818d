package gmm

import (
	"math"
	"testing"

	"factorml/internal/plan"
)

func TestDiagonalExactnessBinary(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 500, 30, 3, 4)
	cfg := Config{K: 3, MaxIter: 5, Tol: 1e-12, Diagonal: true}

	m, err := Train(db, spec, plan.Materialized, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Train(db, spec, plan.Streaming, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Model.MaxParamDiff(s.Model); d > 1e-9 {
		t.Fatalf("M vs S diag param diff %v", d)
	}
	if d := s.Model.MaxParamDiff(f.Model); d > 1e-7 {
		t.Fatalf("S vs F diag param diff %v", d)
	}
}

func TestDiagonalExactnessMultiway(t *testing.T) {
	db := openDB(t)
	spec := synthMulti(t, db, 400, []int{25, 10}, 2, []int{3, 2})
	cfg := Config{K: 2, MaxIter: 4, Tol: 1e-12, Diagonal: true}
	s, err := Train(db, spec, plan.Streaming, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Model.MaxParamDiff(f.Model); d > 1e-7 {
		t.Fatalf("S vs F diag param diff %v (multiway)", d)
	}
}

func TestDiagonalCovariancesAreDiagonal(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 300, 15, 2, 3)
	res, err := TrainF(db, spec, Config{K: 2, MaxIter: 4, Tol: 1e-12, Diagonal: true})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < res.Model.K; k++ {
		cov := res.Model.Covs[k]
		for i := 0; i < res.Model.D; i++ {
			for j := 0; j < res.Model.D; j++ {
				if i == j {
					if cov.At(i, i) <= 0 {
						t.Fatalf("component %d variance %d non-positive", k, i)
					}
				} else if cov.At(i, j) != 0 {
					t.Fatalf("component %d has off-diagonal entry (%d,%d)=%v", k, i, j, cov.At(i, j))
				}
			}
		}
	}
}

func TestDiagonalCheaperThanFull(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 600, 20, 3, 8)
	full, err := TrainF(db, spec, Config{K: 2, MaxIter: 3, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	diag, err := TrainF(db, spec, Config{K: 2, MaxIter: 3, Tol: 1e-12, Diagonal: true})
	if err != nil {
		t.Fatal(err)
	}
	if diag.Stats.Ops.Mul >= full.Stats.Ops.Mul {
		t.Fatalf("diagonal mults %d not below full-covariance %d", diag.Stats.Ops.Mul, full.Stats.Ops.Mul)
	}
}

func TestDiagonalLLNonDecreasing(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 400, 20, 2, 2)
	res, err := TrainF(db, spec, Config{K: 3, MaxIter: 8, Tol: 1e-12, Diagonal: true})
	if err != nil {
		t.Fatal(err)
	}
	lls := res.Stats.LogLikelihood
	for i := 1; i < len(lls); i++ {
		if lls[i] < lls[i-1]-1e-6*math.Abs(lls[i-1]) {
			t.Fatalf("diag EM log-likelihood decreased at iter %d: %v -> %v", i, lls[i-1], lls[i])
		}
	}
}

// F-IGMM must save ops vs S-IGMM, like the full-covariance case.
func TestDiagonalFactorizedSavesOps(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 1000, 10, 3, 8)
	cfg := Config{K: 2, MaxIter: 2, Tol: 1e-12, Diagonal: true}
	s, err := Train(db, spec, plan.Streaming, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats.Ops.Mul >= s.Stats.Ops.Mul {
		t.Fatalf("F-IGMM mults %d not below S-IGMM %d", f.Stats.Ops.Mul, s.Stats.Ops.Mul)
	}
}
