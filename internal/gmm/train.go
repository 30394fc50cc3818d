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
// configuration asks for (Model.Diagonal) — and then iterated by the one
// driver, em, over the path's partition. F factorizes every direct
// dimension (Eq. 7–24); M (Algorithm 1 reading the materialized T) and S
// (re-joining on the fly) are the same driver with no dimension factorized,
// every joined row all fact part. The decomposition is exact, so all three
// return the same model. Nothing about the join is configured here: its
// block size is the spec's. A table Materialized writes is dropped when
// training finishes.
func Train(db *storage.Database, spec *join.Spec, s plan.Strategy, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	io0 := db.IOStats()

	ps, err := factor.Open(db, spec, s, fmt.Sprintf("T_%s_mgmm", spec.S.Schema().Name))
	if err != nil {
		return nil, err
	}
	defer ps.Close() //nolint:errcheck // best-effort temp cleanup
	ps.Pass = "gmm.init"
	model, n, err := initModel(ps.Scan, ps.Direct.D, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Model: model}
	if err := em(ps, n, cfg, model, &res.Stats); err != nil {
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
