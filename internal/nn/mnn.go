package nn

import (
	"fmt"
	"time"

	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/storage"
)

// TrainM is the baseline M-NN: materialize T on disk
// (factor.MaterializedSource), then train reading T once per epoch.
// Block-mode mini-batch boundaries are reconstructed from the
// materializer's per-block tuple counts, so the parameter trajectory is
// identical to S-NN/F-NN. The temporary table is dropped afterwards.
func TrainM(db *storage.Database, spec *join.Spec, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !spec.S.Schema().HasTarget {
		return nil, fmt.Errorf("nn: fact table %q has no target column", spec.S.Schema().Name)
	}
	if cfg.ShuffleSeed != 0 {
		return nil, fmt.Errorf("nn: M-NN reads a fixed materialized T and does not support ShuffleSeed; use the streaming or factorized trainer")
	}
	start := time.Now()
	io0 := db.Pool().Stats()

	src, err := factor.NewMaterializedSource(db, spec, fmt.Sprintf("T_%s_mnn", spec.S.Schema().Name))
	if err != nil {
		return nil, err
	}
	defer src.Close() //nolint:errcheck // best-effort temp cleanup

	net, err := initNetwork(cfg, spec.JoinedWidth())
	if err != nil {
		return nil, err
	}
	res := &Result{Net: net}
	if err := trainDense(src.ScanGroups, cfg, net, &res.Stats); err != nil {
		return nil, err
	}
	res.Stats.IO = db.Pool().Stats().Sub(io0)
	res.Stats.TrainTime = time.Since(start)
	return res, nil
}
