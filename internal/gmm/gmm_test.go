package gmm

import (
	"math"
	"testing"

	"factorml/internal/data"
	"factorml/internal/join"
	"factorml/internal/plan"
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

func synthBinary(t *testing.T, db *storage.Database, nS, nR, dS, dR int) *join.Spec {
	t.Helper()
	spec, err := data.Generate(db, "t", data.SynthConfig{
		NS: nS, NR: []int{nR}, DS: dS, DR: []int{dR}, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func synthMulti(t *testing.T, db *storage.Database, nS int, nR []int, dS int, dR []int) *join.Spec {
	t.Helper()
	spec, err := data.Generate(db, "t", data.SynthConfig{
		NS: nS, NR: nR, DS: dS, DR: dR, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// The headline invariant: M-GMM, S-GMM and F-GMM produce identical models.
func TestExactnessBinary(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 600, 40, 3, 4)
	cfg := Config{K: 3, MaxIter: 6, Tol: 1e-12} // run all iterations

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
		t.Fatalf("M vs S param diff %v", d)
	}
	if d := s.Model.MaxParamDiff(f.Model); d > 1e-7 {
		t.Fatalf("S vs F param diff %v", d)
	}
	// Log-likelihood traces must match too.
	if len(m.Stats.LogLikelihood) != len(f.Stats.LogLikelihood) {
		t.Fatalf("iteration counts differ: %d vs %d", len(m.Stats.LogLikelihood), len(f.Stats.LogLikelihood))
	}
	for i := range m.Stats.LogLikelihood {
		a, b := m.Stats.LogLikelihood[i], f.Stats.LogLikelihood[i]
		if math.Abs(a-b) > 1e-6*math.Max(1, math.Abs(a)) {
			t.Fatalf("iter %d: LL %v vs %v", i, a, b)
		}
	}
}

func TestExactnessMultiway(t *testing.T) {
	db := openDB(t)
	spec := synthMulti(t, db, 500, []int{30, 12}, 2, []int{3, 2})
	cfg := Config{K: 3, MaxIter: 5, Tol: 1e-12}

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
		t.Fatalf("M vs S param diff %v", d)
	}
	if d := s.Model.MaxParamDiff(f.Model); d > 1e-7 {
		t.Fatalf("S vs F param diff %v", d)
	}
}

// Exactness must hold when the dimension table spans multiple BNL blocks.
func TestExactnessMultiBlock(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 800, 600, 2, 1) // R: 600 tuples, 16B records
	spec.BlockPages = 1
	cfg := Config{K: 2, MaxIter: 4, Tol: 1e-12}
	s, err := Train(db, spec, plan.Streaming, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Model.MaxParamDiff(f.Model); d > 1e-7 {
		t.Fatalf("S vs F param diff %v with multiple blocks", d)
	}
}

func TestLogLikelihoodNonDecreasing(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 400, 20, 2, 2)
	res, err := TrainF(db, spec, Config{K: 3, MaxIter: 10, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	lls := res.Stats.LogLikelihood
	if len(lls) < 3 {
		t.Fatalf("too few iterations recorded: %d", len(lls))
	}
	for i := 1; i < len(lls); i++ {
		if lls[i] < lls[i-1]-1e-6*math.Abs(lls[i-1]) {
			t.Fatalf("EM log-likelihood decreased at iter %d: %v -> %v", i, lls[i-1], lls[i])
		}
	}
}

func TestConvergenceStopsEarly(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 300, 15, 2, 2)
	res, err := TrainF(db, spec, Config{K: 2, MaxIter: 50, Tol: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("expected convergence within 50 iterations at tol 1e-3")
	}
	if res.Stats.Iters >= 50 {
		t.Fatalf("expected early stop, ran all %d iterations", res.Stats.Iters)
	}
}

// F-GMM must spend strictly fewer multiplications than S-GMM when there is
// redundancy to exploit (rr >> 1, dR > 0) — the Δτ claim of §V-B.
func TestFactorizedSavesOps(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 1000, 10, 3, 8) // rr=100, dR large
	cfg := Config{K: 2, MaxIter: 3, Tol: 1e-12}
	s, err := Train(db, spec, plan.Streaming, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats.Ops.Mul >= s.Stats.Ops.Mul {
		t.Fatalf("F-GMM mults %d not below S-GMM %d", f.Stats.Ops.Mul, s.Stats.Ops.Mul)
	}
	ratio := float64(s.Stats.Ops.Mul) / float64(f.Stats.Ops.Mul)
	if ratio < 1.5 {
		t.Fatalf("expected substantial op savings at rr=100, dR=8; got ratio %.2f", ratio)
	}
}

// §V-B closed form for the Σ-step (Eq. 14), in the upper-triangular form
// the trainers accumulate: per S tuple the monolithic computation spends
// d(d+1)/2 + d multiplications, the factorized one dS(dS+1)/2 + 2·dS, plus
// dR(dR+1)/2 + dR + dS·dR + dS once per R tuple. Verify the measured
// counter difference covers it.
func TestSigmaStepSavingRateMatchesClosedForm(t *testing.T) {
	db := openDB(t)
	nS, nR, dS, dR := 500, 25, 3, 5
	spec := synthBinary(t, db, nS, nR, dS, dR)
	cfg := Config{K: 1, MaxIter: 1, Tol: 1e-12}
	s, err := Train(db, spec, plan.Streaming, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := dS + dR
	// Count only the second-moment multiplications (K=1, 1 iter).
	// Dense: per tuple AddSyrk(d) = d(d+1)/2 + d.
	denseSigma := int64(nS) * int64(d*(d+1)/2+d)
	// Factorized: per tuple AddSyrk(dS) + Axpy(dS) [gvec];
	// per R tuple AddSyrk(dR) + AddOuter(dS,dR).
	factSigma := int64(nS)*int64(dS*(dS+1)/2+dS+dS) +
		int64(nR)*int64((dR*(dR+1)/2+dR)+(dS*dR+dS))
	wantDelta := denseSigma - factSigma

	// Compare total multiplication counters: the E-step and first-moment
	// savings are also positive, so the total saving must be at least the
	// Σ-step closed form.
	gotDelta := s.Stats.Ops.Mul - f.Stats.Ops.Mul
	if gotDelta < wantDelta {
		t.Fatalf("measured mult saving %d below Σ-step closed form %d", gotDelta, wantDelta)
	}
}

// With well-separated clusters, the trained model should assign points from
// the same generating cluster to the same component.
func TestModelQualityOnSeparatedClusters(t *testing.T) {
	db := openDB(t)
	spec, err := data.Generate(db, "q", data.SynthConfig{
		NS: 800, NR: []int{20}, DS: 2, DR: []int{2}, Clusters: 2, Noise: 0.01, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := TrainF(db, spec, Config{K: 4, MaxIter: 30, Tol: 1e-8})
	if err != nil {
		t.Fatal(err)
	}
	// The fitted mixture should assign high average log-density to the data.
	var ll float64
	var n int
	err = join.Stream(spec, func(_ int64, x []float64, _ float64) error {
		ll += res.Model.LogProb(x)
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	avg := ll / float64(n)
	// An unstructured standard normal baseline over 4 dims would be around
	// -0.5·d·ln(2π)·... ≈ -11 for widely spread centers; the fitted model
	// must do much better than a single wide Gaussian.
	if avg < -8 {
		t.Fatalf("average log-density %v too low — model failed to fit clusters", avg)
	}
}

func TestResponsibilitiesSumToOne(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 200, 10, 2, 2)
	res, err := TrainF(db, spec, Config{K: 3, MaxIter: 3, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 4)
	r := res.Model.Responsibilities(x)
	sum := 0.0
	for _, v := range r {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("responsibilities sum to %v", sum)
	}
	if got := res.Model.Predict(x); got < 0 || got >= 3 {
		t.Fatalf("Predict = %d out of range", got)
	}
}

func TestWeightsSumToOne(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 300, 10, 2, 3)
	res, err := TrainF(db, spec, Config{K: 4, MaxIter: 5, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, w := range res.Model.Weights {
		if w < 0 {
			t.Fatalf("negative weight %v", w)
		}
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights sum to %v", sum)
	}
}

func TestConfigValidation(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 50, 5, 1, 1)
	if _, err := TrainF(db, spec, Config{K: 0}); err == nil {
		t.Fatal("K=0 should fail")
	}
	if _, err := TrainF(db, spec, Config{K: 2, MaxIter: -1}); err == nil {
		t.Fatal("negative MaxIter should fail")
	}
	if _, err := TrainF(db, spec, Config{K: 100}); err == nil {
		t.Fatal("K > N should fail")
	}
}

// M-GMM must write T (page writes > 0); S/F must not write any pages.
func TestIOProfiles(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 400, 20, 2, 2)
	cfg := Config{K: 2, MaxIter: 2, Tol: 1e-12}
	m, err := Train(db, spec, plan.Materialized, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.IO.PageWrites == 0 {
		t.Fatal("M-GMM should materialize pages")
	}
	f, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats.IO.PageWrites != 0 {
		t.Fatalf("F-GMM wrote %d pages; should write none", f.Stats.IO.PageWrites)
	}
	if f.Stats.IO.LogicalReads == 0 {
		t.Fatal("F-GMM should have read pages")
	}
	// M-GMM drops its temporary table.
	for _, n := range db.TableNames() {
		if n == "T_t_S_mgmm" {
			t.Fatal("temporary materialized table was not dropped")
		}
	}
}

func TestStatsFinalLL(t *testing.T) {
	var s Stats
	if !math.IsInf(s.FinalLL(), -1) {
		t.Fatal("empty stats FinalLL should be -Inf")
	}
	s.LogLikelihood = []float64{-10, -5}
	if s.FinalLL() != -5 {
		t.Fatalf("FinalLL = %v", s.FinalLL())
	}
}

func TestCriteria(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 300, 15, 2, 2)
	res, err := TrainF(db, spec, Config{K: 2, MaxIter: 3, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Model
	// d=4, K=2: params = 1 + 8 + 2*10 = 29 (full); 1 + 8 + 8 = 17 (diag).
	if got := m.NumParams(); got != 29 {
		t.Fatalf("NumParams(full) = %d, want 29", got)
	}
	diag, err := TrainF(db, spec, Config{K: 2, MaxIter: 3, Tol: 1e-12, Diagonal: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := diag.Model.NumParams(); got != 17 {
		t.Fatalf("NumParams(diag) = %d, want 17", got)
	}
	ll, n, err := m.Score(spec)
	if err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("Score n = %d", n)
	}
	bic := m.BIC(ll, n)
	aic := m.AIC(ll)
	if math.IsNaN(bic) || math.IsNaN(aic) {
		t.Fatal("NaN criteria")
	}
	// BIC penalizes harder than AIC at n=300 (ln 300 > 2).
	if bic <= aic {
		t.Fatalf("BIC %v should exceed AIC %v at n=300", bic, aic)
	}
}

// Model selection sanity: when the data has 2 well-separated clusters, BIC
// at K=2 should beat K=1.
func TestBICPrefersTrueK(t *testing.T) {
	db := openDB(t)
	spec, err := data.Generate(db, "bic", data.SynthConfig{
		NS: 600, NR: []int{20}, DS: 2, DR: []int{2}, Clusters: 2, Noise: 0.01, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	var bics []float64
	for _, k := range []int{1, 2} {
		res, err := TrainF(db, spec, Config{K: k, MaxIter: 25, Tol: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		ll, n, err := res.Model.Score(spec)
		if err != nil {
			t.Fatal(err)
		}
		bics = append(bics, res.Model.BIC(ll, n))
	}
	if bics[1] >= bics[0] {
		t.Fatalf("BIC(K=2)=%v should beat BIC(K=1)=%v on 2-cluster data", bics[1], bics[0])
	}
}
