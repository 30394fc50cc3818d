package factorml

import (
	"factorml/internal/data"
	"factorml/internal/gmm"
	"factorml/internal/nn"
	"factorml/internal/plan"
)

// TrainGMM trains a Gaussian mixture over the dataset with the chosen
// execution strategy. With Auto, the cost-based planner selects the
// strategy from the catalog's table statistics; the decision is recorded
// in the result's Stats.Plan and the trained model is bit-identical to
// invoking the chosen strategy directly.
func TrainGMM(ds *Dataset, algo Algorithm, cfg GMMConfig) (*GMMResult, error) {
	cfg.NumWorkers = ds.db.workers(cfg.NumWorkers)
	algo, planned, err := ds.resolve(algo, cfg.ModelSpec())
	if err != nil {
		return nil, err
	}
	res, err := gmm.Train(ds.db.db, ds.spec, algo, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats.Plan = planned
	return res, nil
}

// TrainNN trains a feed-forward network over the dataset with the chosen
// execution strategy. The fact table must have been created with a target.
// With Auto, the cost-based planner selects the strategy (see TrainGMM).
func TrainNN(ds *Dataset, algo Algorithm, cfg NNConfig) (*NNResult, error) {
	cfg.NumWorkers = ds.db.workers(cfg.NumWorkers)
	algo, planned, err := ds.resolve(algo, cfg.ModelSpec())
	if err != nil {
		return nil, err
	}
	res, err := nn.Train(ds.db.db, ds.spec, algo, cfg)
	if err != nil {
		return nil, err
	}
	res.Stats.Plan = planned
	return res, nil
}

// workers resolves a GMMConfig's, NNConfig's or StreamPolicy's NumWorkers:
// zero inherits the database default, Options.NumWorkers.
func (d *DB) workers(n int) int {
	if n == 0 {
		return d.opts.NumWorkers
	}
	return n
}

// resolve turns Auto into the planner's pick for the model, returning the
// plan it came from; any other algorithm passes through with a nil plan.
func (ds *Dataset) resolve(algo Algorithm, m plan.ModelSpec) (Algorithm, *StrategyPlan, error) {
	if algo != Auto {
		return algo, nil, nil
	}
	p, err := ds.plan(m)
	if err != nil {
		return algo, nil, err
	}
	return p.Chosen, p, nil
}

// plan prices the three execution strategies for one model over the
// dataset from the catalog's persisted table statistics.
func (ds *Dataset) plan(m plan.ModelSpec) (*StrategyPlan, error) {
	ss, err := plan.Collect(ds.spec)
	if err != nil {
		return nil, err
	}
	return plan.Choose(ss, m, plan.Options{})
}

// PlanGMM prices the three execution strategies for EM training of a
// mixture with this configuration over the dataset, using the catalog's
// persisted table statistics (storage.TableStats), and returns the ranked
// plan without training.
func PlanGMM(ds *Dataset, cfg GMMConfig) (*StrategyPlan, error) {
	return ds.plan(cfg.ModelSpec())
}

// PlanNN prices the three execution strategies for SGD training of a
// network with this configuration over the dataset; see PlanGMM.
func PlanNN(ds *Dataset, cfg NNConfig) (*StrategyPlan, error) {
	return ds.plan(cfg.ModelSpec())
}

// GenerateSynthetic creates a synthetic star schema in the database and
// returns it as a Dataset (see SyntheticConfig for the shape knobs).
func GenerateSynthetic(d *DB, name string, cfg SyntheticConfig) (*Dataset, error) {
	spec, err := data.Generate(d.db, name, cfg)
	if err != nil {
		return nil, err
	}
	return &Dataset{db: d, spec: spec}, nil
}

// RealDatasetShapes lists the shapes of the paper's real datasets
// (Tables IV/V).
func RealDatasetShapes() []DatasetShape {
	return append([]DatasetShape{}, data.RealShapes...)
}

// GenerateRealShape creates a simulated instance of one of the paper's real
// datasets at the given scale ∈ (0,1].
func GenerateRealShape(d *DB, name string, scale float64, seed int64) (*Dataset, error) {
	shape, err := data.ShapeByName(name)
	if err != nil {
		return nil, err
	}
	spec, err := data.GenerateShape(d.db, shape, scale, seed)
	if err != nil {
		return nil, err
	}
	return &Dataset{db: d, spec: spec}, nil
}
