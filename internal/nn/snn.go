package nn

import (
	"fmt"
	"math/rand"
	"time"

	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/storage"
)

// TrainS is the baseline S-NN: identical training to M-NN, but each epoch
// re-executes the block-nested-loops join (factor.StreamedSource) instead
// of reading a materialized T.
func TrainS(db *storage.Database, spec *join.Spec, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !spec.S.Schema().HasTarget {
		return nil, fmt.Errorf("nn: fact table %q has no target column", spec.S.Schema().Name)
	}
	start := time.Now()
	io0 := db.Pool().Stats()

	src, err := factor.NewStreamedSource(spec, cfg.BlockPages)
	if err != nil {
		return nil, err
	}

	var shuffleRng *rand.Rand
	if cfg.ShuffleSeed != 0 {
		shuffleRng = rand.New(rand.NewSource(cfg.ShuffleSeed))
	}
	pass := func(onRow factor.RowFn, onGroupEnd func() error) error {
		if shuffleRng != nil {
			src.Shuffle(shuffleRng) // one permutation per epoch (§VI)
		}
		return src.ScanGroups(onRow, onGroupEnd)
	}

	net, err := initNetwork(cfg, src.Width())
	if err != nil {
		return nil, err
	}
	res := &Result{Net: net}
	if err := trainDense(pass, cfg, net, &res.Stats); err != nil {
		return nil, err
	}
	res.Stats.IO = db.Pool().Stats().Sub(io0)
	res.Stats.TrainTime = time.Since(start)
	return res, nil
}
