package factorml

import (
	"factorml/internal/monitor"
	"factorml/internal/serve"
)

// registry lazily opens the model registry of the database directory. The
// registry loads every persisted model on first use and is shared by the
// save/load methods and NewServer.
func (d *DB) registry() (*serve.Registry, error) {
	d.regOnce.Do(func() { d.reg, d.regErr = serve.NewRegistry(d.db) })
	return d.reg, d.regErr
}

// ValidModelName reports whether name can be a registry key: 1–64
// characters of letters, digits, '_' and '-', starting alphanumeric. The
// Save methods refuse anything else; check first to fail before training
// rather than after.
func ValidModelName(name string) bool { return serve.ValidModelName(name) }

// SaveGMM persists a trained mixture model under a name in the database's
// model registry (version 1, or a bumped version when the name exists).
// Saved models survive Close/Open and are served by NewServer and
// cmd/serve. The registry keeps a reference to the model; do not
// mutate it afterwards.
func (d *DB) SaveGMM(name string, m *GMMModel) error {
	reg, err := d.registry()
	if err != nil {
		return err
	}
	return reg.SaveGMM(name, m)
}

// SaveNN persists a trained network under a name in the database's model
// registry. See SaveGMM for the registry semantics.
func (d *DB) SaveNN(name string, n *NNNetwork) error {
	reg, err := d.registry()
	if err != nil {
		return err
	}
	return reg.SaveNN(name, n)
}

// GMMLineage captures training lineage for a mixture just trained over
// the dataset: two streaming passes over the join snapshot per-column
// distribution statistics plus a per-row log-likelihood baseline, the
// reference every later drift and prediction-quality score compares
// against. Pass the result to SaveGMMLineage (and a health monitor picks
// it up from the registry).
func GMMLineage(ds *Dataset, m *GMMModel, strategy string) (*ModelLineage, error) {
	logProb := m.LogProbFunc()
	base, err := monitor.CaptureBaseline(ds.spec,
		func(x []float64, y float64) float64 { return logProb(x) }, "log_likelihood")
	if err != nil {
		return nil, err
	}
	return &ModelLineage{
		TrainedAtUnix: base.CapturedAtUnix,
		TrainingRows:  base.Rows,
		Strategy:      strategy,
		Baseline:      base,
	}, nil
}

// NNLineage captures training lineage for a network just trained over
// the dataset; the quality baseline sketches the network's output
// distribution. See GMMLineage.
func NNLineage(ds *Dataset, n *NNNetwork, strategy string) (*ModelLineage, error) {
	base, err := monitor.CaptureBaseline(ds.spec,
		func(x []float64, y float64) float64 { return n.Predict(x) }, "output")
	if err != nil {
		return nil, err
	}
	return &ModelLineage{
		TrainedAtUnix: base.CapturedAtUnix,
		TrainingRows:  base.Rows,
		Strategy:      strategy,
		Baseline:      base,
	}, nil
}

// SaveGMMLineage is SaveGMM with training lineage persisted alongside
// the model version (surfaced in GET /v1/models and the health
// endpoint). A nil lineage behaves like SaveGMM: the previous version's
// lineage, if any, is carried forward.
func (d *DB) SaveGMMLineage(name string, m *GMMModel, lin *ModelLineage) error {
	reg, err := d.registry()
	if err != nil {
		return err
	}
	return reg.SaveGMMLineage(name, m, lin)
}

// SaveNNLineage is SaveNN with training lineage persisted alongside the
// model version; see SaveGMMLineage.
func (d *DB) SaveNNLineage(name string, n *NNNetwork, lin *ModelLineage) error {
	reg, err := d.registry()
	if err != nil {
		return err
	}
	return reg.SaveNNLineage(name, n, lin)
}

// LoadGMM returns the named mixture model from the registry. The model is
// shared with the registry: treat it as read-only.
func (d *DB) LoadGMM(name string) (*GMMModel, error) {
	reg, err := d.registry()
	if err != nil {
		return nil, err
	}
	return reg.GMM(name)
}

// LoadNN returns the named network from the registry. The network is
// shared with the registry: treat it as read-only.
func (d *DB) LoadNN(name string) (*NNNetwork, error) {
	reg, err := d.registry()
	if err != nil {
		return nil, err
	}
	return reg.NN(name)
}

// Models lists every registered model's metadata, sorted by name.
func (d *DB) Models() ([]ModelInfo, error) {
	reg, err := d.registry()
	if err != nil {
		return nil, err
	}
	return reg.List(), nil
}

// DeleteModel removes a model from the registry and from disk.
func (d *DB) DeleteModel(name string) error {
	reg, err := d.registry()
	if err != nil {
		return err
	}
	return reg.Delete(name)
}
