package gmm

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"factorml/internal/core"
	"factorml/internal/join"
	"factorml/internal/linalg"
)

// scoreTestModel builds a well-conditioned K=3 mixture over D=6 by hand.
func scoreTestModel(t *testing.T) *Model {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	const K, D = 3, 6
	m := &Model{K: K, D: D}
	for k := 0; k < K; k++ {
		m.Weights = append(m.Weights, float64(k+1))
		mean := make([]float64, D)
		for i := range mean {
			mean[i] = rng.NormFloat64()
		}
		m.Means = append(m.Means, mean)
		// SPD covariance: A·Aᵀ + 0.5·I.
		a := linalg.NewDense(D, D)
		for i := range a.Data() {
			a.Data()[i] = 0.3 * rng.NormFloat64()
		}
		cov := linalg.NewDense(D, D)
		for i := 0; i < D; i++ {
			for j := 0; j < D; j++ {
				s := 0.0
				for l := 0; l < D; l++ {
					s += a.At(i, l) * a.At(j, l)
				}
				cov.Set(i, j, s)
			}
			cov.Set(i, i, cov.At(i, i)+0.5)
		}
		m.Covs = append(m.Covs, cov)
	}
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	for k := range m.Weights {
		m.Weights[k] /= total
	}
	return m
}

// TestScorerMatchesLogProb checks the factorized scorer against the dense
// Model.LogProb/Model.Predict/Model.Responsibilities on the assembled
// joined vector, for a full and a diagonal model, and that its output is
// bit-identical across cache refills.
func TestScorerMatchesLogProb(t *testing.T) {
	for _, diagonal := range []bool{false, true} {
		m := scoreTestModel(t)
		if diagonal {
			m.restrictToDiagonal()
		}
		testScorerMatchesLogProb(t, m)
	}
}

func testScorerMatchesLogProb(t *testing.T, m *Model) {
	p := core.NewPartition([]int{2, 3, 1}) // S ⋈ R1 ⋈ R2
	s, err := m.NewScorer(p)
	if err != nil {
		t.Fatal(err)
	}
	if s.K() != m.K {
		t.Fatalf("K = %d, want %d", s.K(), m.K)
	}
	rng := rand.New(rand.NewSource(9))
	sc := s.NewScratch()
	var ops core.Ops
	for trial := 0; trial < 25; trial++ {
		x := make([]float64, m.D)
		for i := range x {
			x[i] = rng.NormFloat64() * 2
		}
		caches := make([][]core.QuadCache, p.Parts()-1)
		for j := range caches {
			caches[j] = make([]core.QuadCache, s.K())
			s.FillDimCaches(caches[j], 1+j, p.Slice(x, 1+j), &ops)
		}
		got, cluster := s.Score(p.Slice(x, 0), caches, sc)
		want := m.LogProb(x)
		if d := math.Abs(got - want); d > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d: Score = %v, LogProb = %v (diff %g)", trial, got, want, d)
		}
		if dense := m.Predict(x); cluster != dense {
			t.Fatalf("trial %d: Score cluster %d, Predict %d", trial, cluster, dense)
		}
		gamma := make([]float64, s.K())
		if ll := s.Responsibilities(p.Slice(x, 0), caches, sc, gamma); ll != got {
			t.Fatalf("trial %d: Responsibilities LL %v, Score %v", trial, ll, got)
		}
		if d := linalg.MaxAbsDiffVec(gamma, m.Responsibilities(x)); d > 1e-9 {
			t.Fatalf("trial %d (diagonal=%v): responsibilities differ from the dense ones by %g", trial, m.Diagonal, d)
		}

		// Refilled caches produce bit-identical scores.
		caches2 := make([][]core.QuadCache, p.Parts()-1)
		for j := range caches2 {
			caches2[j] = make([]core.QuadCache, s.K())
			s.FillDimCaches(caches2[j], 1+j, p.Slice(x, 1+j), &ops)
		}
		again, _ := s.Score(p.Slice(x, 0), caches2, sc)
		if again != got {
			t.Fatalf("trial %d: refilled caches changed the score: %v vs %v", trial, again, got)
		}
	}
	if ops.Mul == 0 {
		t.Fatal("scorer charged no multiplies")
	}
}

// TestScorerShapeValidation covers the constructor's width check.
func TestScorerShapeValidation(t *testing.T) {
	m := scoreTestModel(t)
	if _, err := m.NewScorer(core.NewPartition([]int{2, 3})); err == nil {
		t.Fatal("NewScorer accepted a partition narrower than the model")
	}
}

// TestScorerSingleComponent pins the K=1 edge the incremental-maintenance
// path leans on: responsibilities must be exactly 1 (the log-sum-exp of a
// singleton), and the factorized log-density must match the dense one.
func TestScorerSingleComponent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const D = 5
	m := &Model{K: 1, D: D, Weights: []float64{1}}
	mean := make([]float64, D)
	for i := range mean {
		mean[i] = rng.NormFloat64()
	}
	m.Means = append(m.Means, mean)
	cov := linalg.Diag(slices.Repeat([]float64{1.5}, D))
	m.Covs = append(m.Covs, cov)

	p := core.NewPartition([]int{2, 3})
	s, err := m.NewScorer(p)
	if err != nil {
		t.Fatal(err)
	}
	sc := s.NewScratch()
	x := []float64{0.3, -0.7, 1.2, 0.1, -0.4}
	caches := [][]core.QuadCache{make([]core.QuadCache, 1)}
	var ops core.Ops
	s.FillDimCaches(caches[0], 1, x[2:], &ops)

	lp, cluster := s.Score(x[:2], caches, sc)
	if cluster != 0 {
		t.Fatalf("cluster = %d, want 0", cluster)
	}
	if want := m.LogProb(x); math.Abs(lp-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("K=1 Score = %g, LogProb = %g", lp, want)
	}
	gamma := make([]float64, 1)
	ll := s.Responsibilities(x[:2], caches, sc, gamma)
	if gamma[0] != 1 {
		t.Fatalf("K=1 responsibility = %g, want exactly 1", gamma[0])
	}
	if ll != lp {
		t.Fatalf("Responsibilities LL = %g, Score = %g", ll, lp)
	}
}

// LogProbFunc factorizes the covariances once; its values are LogProb's,
// bit for bit, and a model whose covariance is not positive definite
// scores −Inf through both.
func TestLogProbFuncMatchesLogProb(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 300, 15, 2, 3)
	res, err := TrainF(db, spec, Config{K: 3, MaxIter: 3, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	logProb := res.Model.LogProbFunc()
	rows := 0
	err = join.Stream(spec, func(_ int64, x []float64, _ float64) error {
		rows++
		if got, want := logProb(x), res.Model.LogProb(x); got != want {
			t.Fatalf("row %d: LogProbFunc %v, LogProb %v", rows, got, want)
		}
		return nil
	})
	if err != nil || rows == 0 {
		t.Fatalf("streamed %d rows, err %v", rows, err)
	}

	bad := res.Model.Clone()
	bad.Covs[1].Set(0, 0, -1)
	x := make([]float64, bad.D)
	if got := bad.LogProbFunc()(x); !math.IsInf(got, -1) {
		t.Fatalf("non-PD covariance: LogProbFunc = %v, want -Inf", got)
	}
	for _, g := range bad.Responsibilities(x) {
		if g != 1.0/3 {
			t.Fatalf("non-PD covariance: responsibilities %v, want uniform", bad.Responsibilities(x))
		}
	}
}
