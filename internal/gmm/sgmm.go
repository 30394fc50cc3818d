package gmm

import (
	"time"

	"factorml/internal/factor"
	"factorml/internal/join"
	"factorml/internal/storage"
)

// TrainS is the baseline S-GMM: identical EM to M-GMM, but every pass over
// T is replaced by re-executing the block-nested-loops join on the fly
// (factor.StreamedSource), so T is never written to disk.
func TrainS(db *storage.Database, spec *join.Spec, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	io0 := db.Pool().Stats()

	src, err := factor.NewStreamedSource(spec, cfg.BlockPages)
	if err != nil {
		return nil, err
	}
	return trainDense(db, src, cfg, start, io0)
}

// trainDense is the shared body of M-GMM and S-GMM: initialize over one
// scan of the source, then run the dense EM driver over the same access
// path. The two strategies differ only in the factor.Source they hand in.
func trainDense(db *storage.Database, src factor.Source, cfg Config, start time.Time, io0 storage.IOStats) (*Result, error) {
	pass := func(fn func(x []float64) error) error {
		return src.Scan(func(x []float64, _ float64) error { return fn(x) })
	}
	d := src.Width()
	model, n, err := initModel(pass, d, cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Model: model}
	if err := emDense(pass, d, n, cfg, model, &res.Stats); err != nil {
		return nil, err
	}
	res.Stats.IO = db.Pool().Stats().Sub(io0)
	res.Stats.TrainTime = time.Since(start)
	return res, nil
}
