package experiments

import (
	"fmt"

	"factorml/internal/data"
	"factorml/internal/gmm"
	"factorml/internal/nn"
	"factorml/internal/storage"
)

// tableVIDatasets are the rows of Table VI (GMM, dense representation).
var tableVIDatasets = []string{
	"Expedia1", "Expedia2", "Walmart", "Movies",
	"Expedia3", "Expedia4", "Expedia5", "Movies3way",
}

// tableVIIDatasets are the rows of Table VII (NN, one-hot representation).
var tableVIIDatasets = []string{"WalmartSparse", "MoviesSparse", "Movies3waySparse"}

// TableVI reproduces the GMM real-dataset comparison. Datasets are
// simulated at the profile's RealScale: package data's comment gives the
// substitution rationale, and benchmark/README.md ("How the numbers line up
// with the paper") places Table VI's Movies 3-way shape among the workloads.
func (h *Harness) TableVI() ([]Row, error) {
	var rows []Row
	for _, name := range tableVIDatasets {
		shape, err := data.ShapeByName(name)
		if err != nil {
			return rows, err
		}
		row := Row{Figure: "TableVI", Series: name}
		err = h.withDB("t6_"+name, func(db *storage.Database) error {
			spec, err := data.GenerateShape(db, shape, h.P.RealScale, 7)
			if err != nil {
				return err
			}
			return trainGMM3(db, spec, gmm.Config{K: sweepK, MaxIter: h.P.GMMIters, Tol: 1e-300}, &row)
		})
		if err != nil {
			return rows, fmt.Errorf("experiments: TableVI %s: %w", name, err)
		}
		h.logf("%s", row)
		rows = append(rows, row)
	}
	return rows, nil
}

// TableVII reproduces the NN real-dataset comparison over one-hot encoded
// (sparse) datasets.
func (h *Harness) TableVII() ([]Row, error) {
	var rows []Row
	for _, name := range tableVIIDatasets {
		shape, err := data.ShapeByName(name)
		if err != nil {
			return rows, err
		}
		row := Row{Figure: "TableVII", Series: name}
		err = h.withDB("t7_"+name, func(db *storage.Database) error {
			spec, err := data.GenerateShape(db, shape, h.P.RealScale, 7)
			if err != nil {
				return err
			}
			return trainNN3(db, spec, nn.Config{Hidden: []int{sweepNH}, Epochs: h.P.NNEpochs}, &row)
		})
		if err != nil {
			return rows, fmt.Errorf("experiments: TableVII %s: %w", name, err)
		}
		h.logf("%s", row)
		rows = append(rows, row)
	}
	return rows, nil
}

// Experiments lists the runnable experiment names in paper order.
func Experiments() []string {
	return []string{
		"Fig3a", "Fig3b", "Fig3c", "Fig4a", "Fig4b", "Fig4c",
		"Fig5a", "Fig5b", "Fig5c", "Fig6a", "Fig6b", "Fig6c",
		"TableVI", "TableVII",
	}
}

// Run dispatches one experiment by name.
func (h *Harness) Run(name string) ([]Row, error) {
	switch name {
	case "Fig3a":
		return h.Fig3a()
	case "Fig3b":
		return h.Fig3b()
	case "Fig3c":
		return h.Fig3c()
	case "Fig4a":
		return h.Fig4a()
	case "Fig4b":
		return h.Fig4b()
	case "Fig4c":
		return h.Fig4c()
	case "Fig5a":
		return h.Fig5a()
	case "Fig5b":
		return h.Fig5b()
	case "Fig5c":
		return h.Fig5c()
	case "Fig6a":
		return h.Fig6a()
	case "Fig6b":
		return h.Fig6b()
	case "Fig6c":
		return h.Fig6c()
	case "TableVI":
		return h.TableVI()
	case "TableVII":
		return h.TableVII()
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (choose from %v)", name, Experiments())
	}
}
