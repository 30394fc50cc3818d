package gmm

import (
	"fmt"
	"time"

	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/storage"
)

// TrainM is the baseline M-GMM (Algorithm 1): materialize T = S ⋈ R1 ⋈ … on
// disk (factor.MaterializedSource), then run EM reading T once per
// iteration (see emDense). The temporary table is dropped when training
// finishes.
func TrainM(db *storage.Database, spec *join.Spec, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	io0 := db.Pool().Stats()

	src, err := factor.NewMaterializedSource(db, spec, fmt.Sprintf("T_%s_mgmm", spec.S.Schema().Name))
	if err != nil {
		return nil, err
	}
	defer src.Close() //nolint:errcheck // best-effort temp cleanup
	return trainDense(db, src, cfg, start, io0)
}
