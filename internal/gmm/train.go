package gmm

import (
	"fmt"
	"time"

	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/plan"
	"factorml/internal/storage"
)

// Train fits a mixture over the join by EM. The three strategies are the
// same EM over different access paths, and factor.Open hands the path over
// driver-ready: the model is initialized over one scan of the rows — the
// same rows in the same order whatever the path, so every strategy starts
// from the identical model, stamped with the covariance structure the
// configuration asks for (Model.Diagonal) — and then iterated by the
// factorized driver when the path carries the factorized parts (Eq. 7–24)
// and by the dense one over its rows otherwise (Algorithm 1 reading the
// materialized T, or re-joining on the fly). The decomposition is exact,
// so all three return the same model. Nothing about the join is configured
// here: its block size is the spec's. A table Materialized writes is
// dropped when training finishes.
func Train(db *storage.Database, spec *join.Spec, s plan.Strategy, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	io0 := db.IOStats()

	path, err := factor.Open(db, spec, s, fmt.Sprintf("T_%s_mgmm", spec.S.Schema().Name))
	if err != nil {
		return nil, err
	}
	defer path.Close() //nolint:errcheck // best-effort temp cleanup
	ps := path.Parts
	if ps != nil {
		ps.Pass = "fgmm.init"
	}
	model, n, err := initModel(path.Scan, path.Width, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Model: model}
	if ps == nil {
		err = emDense(path.Scan, path.Width, n, cfg, model, &res.Stats)
	} else {
		err = emFactorized(ps, n, cfg, model, &res.Stats)
	}
	if err != nil {
		return nil, err
	}
	res.Stats.IO = db.IOStats().Sub(io0)
	res.Stats.TrainTime = time.Since(start)
	return res, nil
}

// TrainF is the paper's F-GMM: EM where every iteration streams the join
// once and the per-tuple math is factorized across the relation partition.
// Quantities that depend only on a dimension tuple (PD_R, the LR quadratic
// term, the I_SR·PD_R cross vector, the per-group responsibility sums) are
// computed once per distinct dimension tuple per pass and reused for all
// matching fact tuples.
func TrainF(db *storage.Database, spec *join.Spec, cfg Config) (*Result, error) {
	return Train(db, spec, plan.Factorized, cfg)
}

// ModelSpec describes the training run this configuration asks for to the
// strategy planner, with the defaults the trainer would apply.
func (c Config) ModelSpec() plan.ModelSpec {
	c = c.withDefaults()
	return plan.ModelSpec{
		Family:   plan.FamilyGMM,
		K:        c.K,
		Iters:    c.MaxIter,
		Diagonal: c.Diagonal,
	}
}
