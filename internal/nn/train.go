package nn

import (
	"fmt"
	"math/rand"
	"time"

	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/plan"
	"factorml/internal/storage"
)

// Train fits a network over the join by backprop. The three strategies
// are the same SGD over different access paths, and factor.Open hands the
// path over driver-ready to the one driver, sgd: F factorizes every direct
// dimension (§VI-A); M (reading the materialized T, whose Block-mode
// mini-batch boundaries are the materializer's per-block tuple counts) and
// S (re-joining every epoch) are the same driver with no dimension
// factorized. Mini-batches coincide across the three and the decomposition
// is exact, so all three follow the same parameter trajectory. Nothing
// about the join is configured here: its block size, and so the Block-mode
// mini-batch, is the spec's. A table Materialized writes is dropped when
// training finishes.
func Train(db *storage.Database, spec *join.Spec, s plan.Strategy, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !spec.S.Schema().HasTarget {
		return nil, fmt.Errorf("nn: fact table %q has no target column", spec.S.Schema().Name)
	}
	start := time.Now()
	io0 := db.IOStats()

	ps, err := factor.Open(db, spec, s, fmt.Sprintf("T_%s_mnn", spec.S.Schema().Name))
	if err != nil {
		return nil, err
	}
	defer ps.Close()   //nolint:errcheck // best-effort temp cleanup
	var shuffle func() // one permutation of R1's keys per epoch (§VI)
	if cfg.ShuffleSeed != 0 {
		if ps.Shuffle == nil {
			return nil, fmt.Errorf("nn: the %s access path reads rows in an order fixed on disk and does not support ShuffleSeed; use the streaming or factorized trainer", s)
		}
		rng := rand.New(rand.NewSource(cfg.ShuffleSeed))
		shuffle = func() { ps.Shuffle(rng) }
	}
	net, err := initNetwork(cfg, ps.Direct.D)
	if err != nil {
		return nil, err
	}
	res := &Result{Net: net}
	if err := sgd(ps, shuffle, cfg, net, &res.Stats); err != nil {
		return nil, err
	}
	res.Stats.IO = db.IOStats().Sub(io0)
	res.Stats.TrainTime = time.Since(start)
	return res, nil
}

// TrainF is the paper's F-NN: backprop where the layer-1 forward pass is
// factorized across relations. For every dimension tuple, the partial
// pre-activation W_R·x_R is computed once per parameter state and reused
// for all matching fact tuples (§VI-A1); the backward pass reads features
// directly from the base relations (§VI-A3). Factorization stops at layer 1
// (§VI-A2; see the package doc).
func TrainF(db *storage.Database, spec *join.Spec, cfg Config) (*Result, error) {
	return Train(db, spec, plan.Factorized, cfg)
}

// ModelSpec describes the training run this configuration asks for to the
// strategy planner, with the defaults the trainer would apply. A warm start
// fixes the architecture, so the network that will actually train is the
// one priced — even one with no hidden layers.
func (c Config) ModelSpec() plan.ModelSpec {
	c = c.withDefaults()
	hidden := c.Hidden
	if c.Init != nil {
		hidden = c.Init.Sizes[1 : len(c.Init.Sizes)-1]
	}
	return plan.ModelSpec{
		Family:    plan.FamilyNN,
		Hidden:    hidden,
		Epochs:    c.Epochs,
		BlockMode: c.Mode == Block,
	}
}
