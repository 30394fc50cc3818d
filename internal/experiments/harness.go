package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"factorml/internal/data"
	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/nn"
	"factorml/internal/plan"
	"factorml/internal/storage"
)

// Row is one measured point of an experiment: one workload configuration
// trained with all three algorithms.
type Row struct {
	Figure string  // e.g. "Fig3a", "TableVI"
	Series string  // sub-series label, e.g. "dR=5" or the dataset name
	X      float64 // swept parameter value (0 for table rows)

	MTime, STime, FTime time.Duration
	MMul, SMul, FMul    int64 // multiplication counters
	MIO, SIO, FIO       int64 // logical page reads
	MWrites             int64 // pages written by materialization

	SpeedupSF float64 // S time / F time
	SpeedupMF float64 // M time / F time
}

func (r Row) String() string {
	return fmt.Sprintf("%-8s %-14s x=%-8g M=%-10v S=%-10v F=%-10v S/F=%.2f M/F=%.2f",
		r.Figure, r.Series, r.X, r.MTime.Round(time.Millisecond),
		r.STime.Round(time.Millisecond), r.FTime.Round(time.Millisecond),
		r.SpeedupSF, r.SpeedupMF)
}

// Harness runs experiments in temporary databases under BaseDir.
type Harness struct {
	BaseDir string
	P       Profile
	Log     io.Writer // optional progress log
}

// New returns a harness writing databases under baseDir.
func New(baseDir string, p Profile, log io.Writer) *Harness {
	return &Harness{BaseDir: baseDir, P: p, Log: log}
}

func (h *Harness) logf(format string, args ...any) {
	if h.Log != nil {
		fmt.Fprintf(h.Log, format+"\n", args...)
	}
}

// withDB runs fn in a fresh database directory that is removed afterwards.
func (h *Harness) withDB(name string, fn func(db *storage.Database) error) error {
	dir := filepath.Join(h.BaseDir, name)
	db, err := storage.Open(dir)
	if err != nil {
		return err
	}
	defer func() {
		db.Close()
		os.RemoveAll(dir)
	}()
	return fn(db)
}

// runGMM trains M/S/F GMM over a freshly generated workload and fills a Row.
func (h *Harness) runGMM(name string, dcfg data.SynthConfig, gcfg gmm.Config, figure, series string, x float64) (Row, error) {
	row := Row{Figure: figure, Series: series, X: x}
	gcfg.Tol = 1e-300 // effectively disable early stopping: compare fixed work
	err := h.withDB(name, func(db *storage.Database) error {
		spec, err := data.Generate(db, name, dcfg)
		if err != nil {
			return err
		}
		return trainGMM3(db, spec, gcfg, &row)
	})
	if err != nil {
		return row, fmt.Errorf("experiments: %s %s x=%g: %w", figure, series, x, err)
	}
	h.logf("%s", row)
	return row, nil
}

// runNN is runGMM's NN counterpart.
func (h *Harness) runNN(name string, dcfg data.SynthConfig, ncfg nn.Config, figure, series string, x float64) (Row, error) {
	row := Row{Figure: figure, Series: series, X: x}
	dcfg.WithTarget = true
	err := h.withDB(name, func(db *storage.Database) error {
		spec, err := data.Generate(db, name, dcfg)
		if err != nil {
			return err
		}
		return trainNN3(db, spec, ncfg, &row)
	})
	if err != nil {
		return row, fmt.Errorf("experiments: %s %s x=%g: %w", figure, series, x, err)
	}
	h.logf("%s", row)
	return row, nil
}

// strategies are the access paths a Row compares, in its M, S, F order.
var strategies = [3]plan.Strategy{plan.Materialized, plan.Streaming, plan.Factorized}

// run is what a Row records of one training.
type run struct {
	time time.Duration
	mul  int64 // multiplication counter
	io   storage.IOStats
}

// trainGMM3 trains the mixture once per strategy, single-threaded: the
// figure rows compare M/S/F algorithmic cost, and the worker pool
// parallelizes the three variants asymmetrically (the factorized M-step
// stays sequential), which would distort the ratios.
func trainGMM3(db *storage.Database, spec *join.Spec, gcfg gmm.Config, row *Row) error {
	gcfg.NumWorkers = 1
	return fillRow(row, func(s plan.Strategy) (run, error) {
		res, err := gmm.Train(db, spec, s, gcfg)
		if err != nil {
			return run{}, err
		}
		return run{res.Stats.TrainTime, res.Stats.Ops.Mul, res.Stats.IO}, nil
	})
}

// trainNN3 is trainGMM3's NN counterpart.
func trainNN3(db *storage.Database, spec *join.Spec, ncfg nn.Config, row *Row) error {
	ncfg.NumWorkers = 1
	return fillRow(row, func(s plan.Strategy) (run, error) {
		res, err := nn.Train(db, spec, s, ncfg)
		if err != nil {
			return run{}, err
		}
		return run{res.Stats.TrainTime, res.Stats.Ops.Mul, res.Stats.IO}, nil
	})
}

// fillRow trains once per strategy, in Row's order, and records the runs.
func fillRow(row *Row, train func(plan.Strategy) (run, error)) error {
	var r [3]run
	for i, s := range strategies {
		var err error
		if r[i], err = train(s); err != nil {
			return err
		}
	}
	row.MTime, row.STime, row.FTime = r[0].time, r[1].time, r[2].time
	row.MMul, row.SMul, row.FMul = r[0].mul, r[1].mul, r[2].mul
	row.MIO, row.SIO, row.FIO = r[0].io.LogicalReads, r[1].io.LogicalReads, r[2].io.LogicalReads
	row.MWrites = r[0].io.PageWrites
	if ft := r[2].time; ft > 0 {
		row.SpeedupSF = float64(row.STime) / float64(ft)
		row.SpeedupMF = float64(row.MTime) / float64(ft)
	}
	return nil
}
