package factorml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"factorml/internal/gmm"
	"factorml/internal/linalg"
)

// The GMM trainers make one pass over the join per EM iteration: each row's
// responsibilities are folded into moments about the iteration's starting
// means, and the M-step is solved from those. This file keeps the paper's
// three-pass Algorithm 1 — responsibilities, then means, then covariances
// about the new means, with an n×K responsibility buffer between them — as
// a plain in-memory oracle, and pins the one-pass trainers against it: on
// random snowflakes, and on the degenerate data where the one-pass
// covariance identity Σ = S/N_k − d·dᵀ could lose what the three-pass form
// keeps.

// threePass is what the oracle reports: the model and the stopping decision.
type threePass struct {
	model     *GMMModel
	iters     int
	converged bool
	ll        []float64
}

// seededInit is the trainers' seeded initialization (one pass: reservoir
// sample K rows as means, global per-column variance on every diagonal),
// restated so the oracle starts where they start.
func seededInit(rows [][]float64, cfg GMMConfig) *GMMModel {
	d := len(rows[0])
	rng := rand.New(rand.NewSource(cfg.Seed))
	reservoir := make([][]float64, 0, cfg.K)
	sum := make([]float64, d)
	sumSq := make([]float64, d)
	for n, x := range rows {
		if n < cfg.K {
			reservoir = append(reservoir, append([]float64{}, x...))
		} else if j := rng.Int63n(int64(n + 1)); j < int64(cfg.K) {
			copy(reservoir[j], x)
		}
		for i, v := range x {
			sum[i] += v
			sumSq[i] += v * v
		}
	}
	variance := make([]float64, d)
	for i := range variance {
		mean := sum[i] / float64(len(rows))
		variance[i] = math.Max(sumSq[i]/float64(len(rows))-mean*mean, gmm.RegEps)
	}
	m := &GMMModel{K: cfg.K, D: d, Weights: make([]float64, cfg.K)}
	for k := 0; k < cfg.K; k++ {
		m.Weights[k] = 1 / float64(cfg.K)
		m.Means = append(m.Means, reservoir[k])
		cov := linalg.Diag(variance)
		cov.AddDiag(gmm.RegEps)
		m.Covs = append(m.Covs, cov)
	}
	return m
}

// threePassEM runs Algorithm 1 over the joined rows, sequentially, the way
// the trainers did before an iteration became one pass. cfg must have
// MaxIter, Tol and Seed set.
func threePassEM(rows [][]float64, cfg GMMConfig) (*threePass, error) {
	n, d, k := len(rows), len(rows[0]), cfg.K
	model := seededInit(rows, cfg)
	if cfg.Init != nil {
		model = cfg.Init.Clone()
	}
	out := &threePass{model: model}
	gamma := make([]float64, n*k)
	logp := make([]float64, k)
	pd := make([]float64, d)
	prevLL := math.Inf(-1)
	for iter := 0; iter < cfg.MaxIter; iter++ {
		// Pass 1: responsibilities under the current parameters.
		inv := make([]*linalg.Dense, k)
		logK := make([]float64, k)
		for c := 0; c < k; c++ {
			var logDet float64
			if cfg.Diagonal {
				inv[c] = linalg.NewDense(d, d)
				for i := 0; i < d; i++ {
					v := model.Covs[c].At(i, i)
					if v <= 0 || math.IsNaN(v) {
						return nil, fmt.Errorf("component %d has non-positive variance %v", c, v)
					}
					inv[c].Set(i, i, 1/v)
					logDet += math.Log(v)
				}
			} else {
				var err error
				if inv[c], logDet, err = linalg.SPDInverse(model.Covs[c]); err != nil {
					return nil, fmt.Errorf("component %d covariance: %w", c, err)
				}
			}
			logK[c] = math.Log(math.Max(model.Weights[c], 1e-300)) - 0.5*(float64(d)*math.Log(2*math.Pi)+logDet)
		}
		ll := 0.0
		for r, x := range rows {
			for c := 0; c < k; c++ {
				linalg.VecSub(pd, x, model.Means[c])
				logp[c] = logK[c] - 0.5*linalg.QuadForm(inv[c], pd)
			}
			lse := linalg.LogSumExp(logp)
			ll += lse
			for c := 0; c < k; c++ {
				gamma[r*k+c] = math.Exp(logp[c] - lse)
			}
		}

		// Pass 2: weights and means; a collapsed component is frozen.
		nk := make([]float64, k)
		sumMu := make([][]float64, k)
		for c := range sumMu {
			sumMu[c] = make([]float64, d)
		}
		for r, x := range rows {
			for c := 0; c < k; c++ {
				nk[c] += gamma[r*k+c]
				linalg.Axpy(gamma[r*k+c], x, sumMu[c])
			}
		}
		for c := 0; c < k; c++ {
			model.Weights[c] = nk[c] / float64(n)
			if nk[c] >= 1e-12 {
				linalg.VecScale(model.Means[c], 1/nk[c], sumMu[c])
			}
		}

		// Pass 3: covariances about the new means.
		sumCov := make([]*linalg.Dense, k)
		for c := range sumCov {
			sumCov[c] = linalg.NewDense(d, d)
		}
		for r, x := range rows {
			for c := 0; c < k; c++ {
				linalg.VecSub(pd, x, model.Means[c])
				if cfg.Diagonal {
					for i, v := range pd {
						sumCov[c].Set(i, i, sumCov[c].At(i, i)+gamma[r*k+c]*v*v)
					}
				} else {
					linalg.OuterAccum(sumCov[c], gamma[r*k+c], pd, pd)
				}
			}
		}
		for c := 0; c < k; c++ {
			if nk[c] >= 1e-12 {
				linalg.VecScale(sumCov[c].Data(), 1/nk[c], sumCov[c].Data())
				sumCov[c].AddDiag(gmm.RegEps)
				copy(model.Covs[c].Data(), sumCov[c].Data())
			}
		}

		out.ll = append(out.ll, ll)
		out.iters = iter + 1
		if iter > 0 && math.Abs(ll-prevLL) <= cfg.Tol*math.Max(1, math.Abs(prevLL)) {
			out.converged = true
			break
		}
		prevLL = ll
	}
	return out, nil
}

// joinedRows collects the dataset's joined feature vectors in stream order.
func joinedRows(t *testing.T, ds *Dataset) [][]float64 {
	t.Helper()
	var rows [][]float64
	err := ds.Stream(func(_ int64, x []float64, _ float64) error {
		rows = append(rows, append([]float64{}, x...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestOnePassMatchesThreePassOracle sweeps the random-snowflake generator
// of the cross-strategy harness (depth 1–3, zero-width tables, shared
// leaves, single-row dimensions, dangling sub-references, the sparse
// shape) and, for full and diagonal covariances, from the seeded start and
// warm-started through Config.Init, asserts that every strategy is
// byte-identical across NumWorkers ∈ {1, 2, 4}, within 1e-9 of the
// three-pass oracle, and stops where the oracle stops.
func TestOnePassMatchesThreePassOracle(t *testing.T) {
	masterSeed := equivEnvInt("FACTORML_EQUIV_SEED", 20261002)
	count := int(equivEnvInt("FACTORML_EQUIV_COUNT", 24))
	if testing.Short() {
		count = 6
	}
	stopped := map[bool]int{} // oracle runs by whether they converged early
	for i := 0; i < count; i++ {
		seed := masterSeed + int64(i)
		rng := rand.New(rand.NewSource(seed))
		db := openDB(t)
		fact, _, shape := buildRandomSnowflake(t, db, rng, true, false)
		ds, err := db.Dataset(fact)
		if err != nil {
			t.Fatalf("seed %d (%s): %v", seed, shape, err)
		}
		rows := joinedRows(t, ds)
		for _, diagonal := range []bool{false, true} {
			// Tol is loose enough that some schemas converge before
			// MaxIter and some do not, so the stopping decision is tested
			// both ways.
			cfg := GMMConfig{K: 2, MaxIter: 5, Tol: 2e-3, Seed: seed, Diagonal: diagonal}
			for _, warm := range []bool{false, true} {
				if warm {
					// Warm start from the seeded start's first iterate.
					first := cfg
					first.MaxIter = 1
					o, err := threePassEM(rows, first)
					if err != nil {
						t.Fatalf("seed %d (%s): oracle: %v", seed, shape, err)
					}
					cfg.Init = o.model
				}
				name := fmt.Sprintf("schema seed %d (%s) diagonal=%v warm=%v", seed, shape, diagonal, warm)
				want, err := threePassEM(rows, cfg)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				stopped[want.converged]++
				for _, algo := range []Algorithm{Materialized, Streaming, Factorized} {
					var first *GMMResult
					for _, w := range []int{1, 2, 4} {
						c := cfg
						c.NumWorkers = w
						res, err := TrainGMM(ds, algo, c)
						if err != nil {
							t.Fatalf("%s: %v-GMM workers=%d: %v", name, algo, w, err)
						}
						if first == nil {
							first = res
						} else if d := first.Model.MaxParamDiff(res.Model); d != 0 {
							t.Errorf("%s: %v-GMM workers=%d differs from workers=1 by %g, want bit-identical", name, algo, w, d)
						}
					}
					if d := want.model.MaxParamDiff(first.Model); !(d <= 1e-9) {
						t.Errorf("%s: one-pass %v-GMM is %g from the three-pass oracle, want <= 1e-9", name, algo, d)
					}
					if first.Stats.Iters != want.iters || first.Stats.Converged != want.converged {
						t.Errorf("%s: %v-GMM stopped at iters=%d converged=%v, the oracle at iters=%d converged=%v",
							name, algo, first.Stats.Iters, first.Stats.Converged, want.iters, want.converged)
					}
				}
			}
		}
	}
	if !testing.Short() && count >= 24 && (stopped[true] == 0 || stopped[false] == 0) {
		t.Errorf("the sweep saw %d early stops and %d runs to MaxIter; Tol no longer tests the stopping decision both ways",
			stopped[true], stopped[false])
	}
	t.Logf("oracle runs: %d converged early, %d ran to MaxIter", stopped[true], stopped[false])
}

// starRows builds a one-dimension star through the public API: row i of
// the fact table carries fact[i] and references dimension tuple fk[i].
func starRows(t *testing.T, db *DB, dim, fact [][]float64, fk []int64) *Dataset {
	t.Helper()
	cols := func(prefix string, n int) []string {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, fmt.Sprintf("%s%d", prefix, i))
		}
		return out
	}
	r, err := db.CreateDimensionTable("r", cols("r", len(dim[0])))
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range dim {
		if err := r.Append(int64(i), x); err != nil {
			t.Fatal(err)
		}
	}
	s, err := db.CreateFactTable("s", cols("s", len(fact[0])), false, r)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range fact {
		if err := s.Append(int64(i), []int64{fk[i]}, x, 0); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := db.Dataset(s)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestOnePassDegenerateCovariances drives the one place the one-pass
// identity could bite — the d·dᵀ subtraction — with data that makes a
// covariance (nearly) singular: a component sitting on a single row, all
// rows identical, more components than distinct rows, and features a
// million away from the origin. Wherever the three-pass oracle trains, the
// one-pass trainers must train too, to finite, symmetric, positive-definite
// covariances and a finite log-likelihood; where the oracle fails, they
// may only fail.
func TestOnePassDegenerateCovariances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	normal := func(n, d int, offset float64) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = make([]float64, d)
			for j := range out[i] {
				out[i][j] = offset + rng.NormFloat64()
			}
		}
		return out
	}
	cycle := func(n, m int) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = int64(i % m)
		}
		return out
	}
	repeat := func(x []float64, n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = x
		}
		return out
	}

	type fixture struct {
		name      string
		dim, fact [][]float64
		fk        []int64
		k         int
		init      func(d int) *GMMModel
	}
	// One component of the warm start sits exactly on a lone far-away row
	// (its own fact row and its own dimension tuple), so that row is all
	// the component ever owns.
	outlierDim := append(normal(6, 2, 0), []float64{40, -40})
	outlierFact := append(normal(60, 2, 0), []float64{-40, 40})
	outlierFK := append(cycle(60, 6), 6)
	fixtures := []fixture{
		{name: "component on a single row", dim: outlierDim, fact: outlierFact, fk: outlierFK, k: 2,
			init: func(d int) *GMMModel {
				m := &GMMModel{K: 2, D: d, Weights: []float64{0.5, 0.5},
					Means: [][]float64{make([]float64, d), {-40, 40, 40, -40}}}
				m.Covs = append(m.Covs, linalg.Diag(slices.Repeat([]float64{1}, d)), linalg.Diag(slices.Repeat([]float64{1}, d)))
				return m
			}},
		{name: "all rows identical", dim: [][]float64{{3, 4}}, fact: repeat([]float64{1, 2}, 50), fk: cycle(50, 1), k: 2},
		{name: "more components than distinct rows", dim: [][]float64{{3, 4}, {-1, 0}, {2, 2}},
			fact: repeat([]float64{1, 2}, 60), fk: cycle(60, 3), k: 5},
		{name: "features offset by 1e6", dim: normal(8, 2, 1e6), fact: normal(80, 2, 1e6), fk: cycle(80, 8), k: 2},
	}

	for _, fx := range fixtures {
		for _, diagonal := range []bool{false, true} {
			name := fmt.Sprintf("%s, diagonal=%v", fx.name, diagonal)
			db := openDB(t)
			ds := starRows(t, db, fx.dim, fx.fact, fx.fk)
			rows := joinedRows(t, ds)
			cfg := GMMConfig{K: fx.k, MaxIter: 6, Tol: 1e-300, Seed: 3, Diagonal: diagonal, NumWorkers: 1}
			if fx.init != nil {
				cfg.Init = fx.init(len(rows[0]))
			}
			want, oracleErr := threePassEM(rows, cfg)
			for _, algo := range []Algorithm{Materialized, Streaming, Factorized} {
				res, err := TrainGMM(ds, algo, cfg)
				if err != nil {
					if oracleErr == nil {
						t.Errorf("%s: one-pass %v-GMM fails (%v) where the three-pass oracle trains", name, algo, err)
					}
					continue
				}
				if ll := res.Stats.FinalLL(); math.IsNaN(ll) || math.IsInf(ll, 0) {
					t.Errorf("%s: %v-GMM final log-likelihood %v", name, algo, ll)
				}
				for c, cov := range res.Model.Covs {
					for _, v := range append(append([]float64{res.Model.Weights[c]}, res.Model.Means[c]...), cov.Data()...) {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("%s: %v-GMM component %d has a non-finite parameter", name, algo, c)
						}
					}
					sym := cov.Clone()
					sym.Symmetrize()
					if d := cov.MaxAbsDiff(sym); d != 0 {
						t.Errorf("%s: %v-GMM covariance %d is %g off its symmetrization", name, algo, c, d)
					}
					if _, err := linalg.NewCholesky(cov); err != nil {
						t.Errorf("%s: %v-GMM covariance %d is not positive definite: %v", name, algo, c, err)
					}
				}
				if oracleErr == nil {
					scale := 1.0
					for _, mu := range want.model.Means {
						scale = math.Max(scale, linalg.MaxAbsDiffVec(mu, make([]float64, len(mu))))
					}
					if d := want.model.MaxParamDiff(res.Model); !(d <= 1e-9*scale) {
						t.Errorf("%s: %v-GMM is %g from the three-pass oracle, want <= %g", name, algo, d, 1e-9*scale)
					}
				}
			}
		}
	}
}
