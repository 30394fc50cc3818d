package experiments

import (
	"cmp"
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
// trained with all three algorithms. The per-strategy columns are indexed
// like strategies: M, S, F.
type Row struct {
	Figure string  // e.g. "Fig3a", "TableVI"
	Series string  // sub-series label, e.g. "dR=5" or the dataset name
	X      float64 // swept parameter value (0 for table rows)

	Time    [3]time.Duration
	Mul     [3]int64 // multiplication counters
	Reads   [3]int64 // logical page reads
	MWrites int64    // pages written by materialization

	SpeedupSF float64 // S time / F time
	SpeedupMF float64 // M time / F time
}

func (r Row) String() string {
	return fmt.Sprintf("%-8s %-14s x=%-8g M=%-10v S=%-10v F=%-10v S/F=%.2f M/F=%.2f",
		r.Figure, r.Series, r.X, r.Time[0].Round(time.Millisecond),
		r.Time[1].Round(time.Millisecond), r.Time[2].Round(time.Millisecond),
		r.SpeedupSF, r.SpeedupMF)
}

// strategies are the access paths a Row compares, in its M, S, F order.
var strategies = [3]plan.Strategy{plan.Materialized, plan.Streaming, plan.Factorized}

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

// runPoint generates pt's workload in a fresh database, removed
// afterwards, and trains e's model over it once per strategy.
func (h *Harness) runPoint(e experiment, i int, pt point) (Row, error) {
	row := Row{Figure: e.name, Series: pt.series, X: pt.x}
	name := fmt.Sprintf("%s_%d", e.name, i)
	dir := filepath.Join(h.BaseDir, name)
	db, err := storage.Open(dir)
	if err != nil {
		return row, err
	}
	defer func() {
		db.Close()
		os.RemoveAll(dir)
	}()
	if err := h.fillRow(db, name, e.family, pt, &row); err != nil {
		return row, fmt.Errorf("experiments: %s %s x=%g: %w", e.name, pt.series, pt.x, err)
	}
	if h.Log != nil {
		fmt.Fprintf(h.Log, "%s\n", row)
	}
	return row, nil
}

// fillRow generates pt's data in db and trains f's model over it once per
// strategy, in Row's order.
func (h *Harness) fillRow(db *storage.Database, name string, f family, pt point, row *Row) error {
	var spec *join.Spec
	var err error
	if pt.shape != "" {
		var shape data.Shape
		if shape, err = data.ShapeByName(pt.shape); err == nil {
			spec, err = data.GenerateShape(db, shape, h.P.RealScale, 7)
		}
	} else {
		cfg := pt.synth
		cfg.WithTarget = f == nnFamily
		spec, err = data.Generate(db, name, cfg)
	}
	if err != nil {
		return err
	}
	for i, s := range strategies {
		var ios storage.IOStats
		// Single-threaded: the rows compare M/S/F algorithmic cost, and the
		// worker pool parallelizes the three variants asymmetrically (the
		// factorized M-step stays sequential), which would distort the ratios.
		switch f {
		case gmmFamily:
			// Tol 1e-300 disables early stopping: every strategy runs
			// the profile's GMMIters.
			res, err := gmm.Train(db, spec, s, gmm.Config{
				K: cmp.Or(pt.size, sweepK), MaxIter: h.P.GMMIters, Tol: 1e-300, NumWorkers: 1})
			if err != nil {
				return err
			}
			row.Time[i], row.Mul[i], ios = res.Stats.TrainTime, res.Stats.Ops.Mul, res.Stats.IO
		case nnFamily:
			res, err := nn.Train(db, spec, s, nn.Config{
				Hidden: []int{cmp.Or(pt.size, sweepNH)}, Epochs: h.P.NNEpochs, NumWorkers: 1})
			if err != nil {
				return err
			}
			row.Time[i], row.Mul[i], ios = res.Stats.TrainTime, res.Stats.Ops.Mul, res.Stats.IO
		}
		row.Reads[i] = ios.LogicalReads
		if s == plan.Materialized {
			row.MWrites = ios.PageWrites
		}
	}
	if ft := row.Time[2]; ft > 0 {
		row.SpeedupSF = float64(row.Time[1]) / float64(ft)
		row.SpeedupMF = float64(row.Time[0]) / float64(ft)
	}
	return nil
}
