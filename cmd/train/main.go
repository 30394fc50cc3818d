// Command train runs one of the six training algorithms (M/S/F × GMM/NN)
// over a star schema stored in a database directory created by datagen —
// or lets the cost-based planner pick the strategy with -algo auto.
//
// Usage:
//
//	train -db orders.db -fact synth_S -dims synth_R1 -model gmm -algo f -k 5
//	train -db orders.db -fact synth_S -dims synth_R1,synth_R2 \
//	      -model nn -algo auto -hidden 50 -epochs 10 -save orders-nn
//	train -db orders.db -fact synth_S -dims synth_R1 -model gmm -k 5 -explain
//
// It prints training time, page I/O, multiplication counts and the model's
// final log-likelihood (GMM) or loss (NN). With -save the trained model is
// persisted in the database's model registry under the given name, ready
// for the serve command, together with its training lineage — trained-at
// time, row count, resolved strategy and the training-time baseline
// statistics the serve command's health monitor scores drift against.
// With -explain the planner's per-strategy cost
// table (estimated flops, page I/O and combined score from the catalog's
// table statistics) is printed and nothing is trained.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/monitor"
	"factorml/internal/nn"
	"factorml/internal/plan"
	"factorml/internal/serve"
	"factorml/internal/storage"
)

func main() {
	dbDir := flag.String("db", "", "database directory (from datagen)")
	fact := flag.String("fact", "", "fact table name")
	dims := flag.String("dims", "", "comma-separated dimension table names, join order")
	model := flag.String("model", "gmm", "model: gmm or nn")
	algo := flag.String("algo", "f", "algorithm: m (materialized), s (streaming), f (factorized), auto (cost-based planner)")
	k := flag.Int("k", 5, "GMM components")
	iters := flag.Int("iters", 10, "GMM max EM iterations")
	tol := flag.Float64("tol", 1e-4, "GMM convergence tolerance")
	hidden := flag.String("hidden", "50", "NN hidden layer sizes, comma-separated")
	act := flag.String("act", "sigmoid", "NN activation: sigmoid, tanh, relu, identity")
	epochs := flag.Int("epochs", 10, "NN training epochs")
	lr := flag.Float64("lr", 0.05, "NN learning rate")
	seed := flag.Int64("seed", 1, "initialization seed")
	workers := flag.Int("workers", 0, "training worker pool size (0 = all CPUs, 1 = sequential); the result is bit-identical for every value")
	save := flag.String("save", "", "save the trained model in the database's model registry under this name (for the serve command)")
	explain := flag.Bool("explain", false, "print the planner's per-strategy cost table for this dataset and configuration, then exit without training")
	tracePath := flag.String("trace", "", "write the per-pass phase-timing breakdown (scan, cache fill, fold, ordered merge) as JSON to this file and print the table after training")
	flag.Parse()

	if *dbDir == "" || *fact == "" || *dims == "" {
		fmt.Fprintln(os.Stderr, "train: -db, -fact and -dims are required")
		os.Exit(2)
	}
	if err := validateFlags(*model, *algo, *k, *iters, *tol, *epochs, *lr, *workers, *save); err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(2)
	}
	if err := run(*dbDir, *fact, *dims, *model, *algo, *k, *iters, *tol, *hidden, *act, *epochs, *lr, *seed, *workers, *save, *explain, *tracePath); err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(1)
	}
}

// validateFlags rejects unknown strategies and out-of-range numeric flags
// up front with a clear message, instead of passing them through to the
// trainers (where, e.g., an invalid -algo used to fall through to a late
// error and a negative -workers would silently clamp to sequential).
func validateFlags(model, algo string, k, iters int, tol float64, epochs int, lr float64, workers int, save string) error {
	switch algo {
	case "m", "s", "f", "auto":
	default:
		return fmt.Errorf("unknown -algo %q: valid strategies are m (materialized), s (streaming), f (factorized), auto (cost-based planner)", algo)
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = all CPUs, 1 = sequential), got %d", workers)
	}
	switch model {
	case "gmm":
		if k < 1 {
			return fmt.Errorf("-k must be >= 1, got %d", k)
		}
		if iters < 1 {
			return fmt.Errorf("-iters must be >= 1, got %d", iters)
		}
		if tol < 0 {
			return fmt.Errorf("-tol must be >= 0, got %g", tol)
		}
	case "nn":
		if epochs < 1 {
			return fmt.Errorf("-epochs must be >= 1, got %d", epochs)
		}
		if lr <= 0 {
			return fmt.Errorf("-lr must be > 0, got %g", lr)
		}
		// An unknown -model is rejected by run's switch; this function only
		// range-checks the numeric flags of the known families.
	}
	if save != "" && !serve.ValidModelName(save) {
		return fmt.Errorf("-save %q is not a valid model name (1-64 chars: letters, digits, '_', '-', starting alphanumeric)", save)
	}
	return nil
}

// parseHidden parses and validates the -hidden layer list.
func parseHidden(hidden string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(hidden, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad -hidden %q: %w", hidden, err)
		}
		if v < 1 {
			return nil, fmt.Errorf("bad -hidden %q: layer size %d, want >= 1", hidden, v)
		}
		sizes = append(sizes, v)
	}
	return sizes, nil
}

func run(dbDir, fact, dims, model, algo string, k, iters int, tol float64,
	hidden, act string, epochs int, lr float64, seed int64, workers int, save string, explain bool, tracePath string) error {

	// -trace observes every pass the training makes (factor.SetObserver /
	// parallel.SetWorkerObserver) and, on the way out, writes the
	// aggregated phase-timing artifact keyed by the strategy that actually
	// ran (after auto resolution — the deferred closure reads the final
	// algo value).
	if tracePath != "" {
		pt := newPassTracer()
		defer func() {
			pt.stop()
			if werr := pt.write(tracePath, model, algo, parallelWorkers(workers)); werr != nil {
				fmt.Fprintln(os.Stderr, "train: writing -trace artifact:", werr)
			}
		}()
	}

	db, err := storage.Open(dbDir, storage.Options{PoolPages: -1})
	if err != nil {
		return err
	}
	defer db.Close()

	sTbl, err := db.Table(fact)
	if err != nil {
		return err
	}
	// -dims names the direct dimension tables; sub-dimension references
	// recorded in the catalog (snowflake schemas) are expanded from there.
	var direct []*storage.Table
	for _, name := range strings.Split(dims, ",") {
		rTbl, err := db.Table(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		direct = append(direct, rTbl)
	}
	spec, err := join.NewSnowflakeSpec(sTbl, direct, db.Table)
	if err != nil {
		return err
	}

	// The planner is consulted for -explain and -algo auto: catalog table
	// statistics price every strategy with the trainers' own flop
	// accounting plus a page-I/O model (internal/plan).
	var pl *plan.Plan
	if explain || algo == "auto" {
		mspec, err := plannerSpec(model, k, iters, hidden, epochs)
		if err != nil {
			return err
		}
		ss, err := plan.Collect(spec)
		if err != nil {
			return err
		}
		pl, err = plan.Choose(ss, mspec, plan.Options{})
		if err != nil {
			return err
		}
	}
	if explain {
		printPlan(pl, fact, dims)
		return nil
	}
	if algo == "auto" {
		algo = map[plan.Strategy]string{plan.Materialized: "m", plan.Streaming: "s", plan.Factorized: "f"}[pl.Chosen]
		best := pl.Estimates[0]
		fmt.Printf("planner chose %s (est %.1f Mflops, %d pages, score %.3g)\n",
			pl.Chosen, float64(best.Ops.Total())/1e6, best.Pages, best.Score)
	}

	// A saved model carries training lineage: one extra streaming pass
	// over the join captures the per-column baseline statistics (plus a
	// per-row quality baseline) that the serve command's health monitor
	// scores live drift against.
	strategyName := map[string]string{"m": "materialized", "s": "streaming", "f": "factorized"}
	captureLineage := func(score func(x []float64, y float64) float64, metric string) (*monitor.Lineage, error) {
		base, err := monitor.CaptureBaseline(spec, 0, score, metric)
		if err != nil {
			return nil, fmt.Errorf("capturing training baseline: %w", err)
		}
		return &monitor.Lineage{
			TrainedAtUnix: base.CapturedAtUnix,
			TrainingRows:  base.Rows,
			Strategy:      strategyName[algo],
			Baseline:      base,
		}, nil
	}

	saveModel := func(kind string, doSave func(*serve.Registry) error) error {
		if save == "" {
			return nil
		}
		// NewRegistry loads every model persisted in the database, not just
		// the one being overwritten — the price of keeping version numbering
		// and validation in one place. Fine for a training CLI; a dedicated
		// save-only path is only worth it if databases accumulate many large
		// models.
		reg, err := serve.NewRegistry(db)
		if err != nil {
			return err
		}
		if err := doSave(reg); err != nil {
			return err
		}
		info, _ := reg.Get(save)
		fmt.Printf("  saved:          %s model %q (version %d)\n", kind, save, info.Version)
		return nil
	}

	switch model {
	case "gmm":
		cfg := gmm.Config{K: k, MaxIter: iters, Tol: tol, Seed: seed, NumWorkers: workers}
		var res *gmm.Result
		switch algo {
		case "m":
			res, err = gmm.TrainM(db, spec, cfg)
		case "s":
			res, err = gmm.TrainS(db, spec, cfg)
		case "f":
			res, err = gmm.TrainF(db, spec, cfg)
		default:
			return fmt.Errorf("unknown algorithm %q (m, s or f)", algo)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s-GMM over %s ⋈ %s\n", strings.ToUpper(algo), fact, dims)
		fmt.Printf("  iterations:     %d (converged=%v)\n", res.Stats.Iters, res.Stats.Converged)
		fmt.Printf("  log-likelihood: %.4f\n", res.Stats.FinalLL())
		fmt.Printf("  train time:     %v\n", res.Stats.TrainTime)
		fmt.Printf("  multiplies:     %d\n", res.Stats.Ops.Mul)
		fmt.Printf("  page IO:        %v\n", res.Stats.IO)
		return saveModel("gmm", func(reg *serve.Registry) error {
			logProb := res.Model.LogProbFunc()
			lin, err := captureLineage(func(x []float64, y float64) float64 { return logProb(x) }, "log_likelihood")
			if err != nil {
				return err
			}
			return reg.SaveGMMLineage(save, res.Model, lin)
		})

	case "nn":
		sizes, err := parseHidden(hidden)
		if err != nil {
			return err
		}
		var activation nn.Activation
		switch act {
		case "sigmoid":
			activation = nn.Sigmoid
		case "tanh":
			activation = nn.Tanh
		case "relu":
			activation = nn.ReLU
		case "identity":
			activation = nn.Identity
		default:
			return fmt.Errorf("unknown activation %q", act)
		}
		cfg := nn.Config{Hidden: sizes, Act: activation, Epochs: epochs, LearningRate: lr, Seed: seed, NumWorkers: workers}
		var res *nn.Result
		switch algo {
		case "m":
			res, err = nn.TrainM(db, spec, cfg)
		case "s":
			res, err = nn.TrainS(db, spec, cfg)
		case "f":
			res, err = nn.TrainF(db, spec, cfg)
		default:
			return fmt.Errorf("unknown algorithm %q (m, s or f)", algo)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%s-NN over %s ⋈ %s\n", strings.ToUpper(algo), fact, dims)
		fmt.Printf("  epochs:      %d\n", res.Stats.Epochs)
		fmt.Printf("  final loss:  %.6f\n", res.Stats.FinalLoss())
		fmt.Printf("  train time:  %v\n", res.Stats.TrainTime)
		fmt.Printf("  multiplies:  %d\n", res.Stats.Ops.Mul)
		fmt.Printf("  page IO:     %v\n", res.Stats.IO)
		return saveModel("nn", func(reg *serve.Registry) error {
			lin, err := captureLineage(func(x []float64, y float64) float64 { return res.Net.Predict(x) }, "output")
			if err != nil {
				return err
			}
			return reg.SaveNNLineage(save, res.Net, lin)
		})

	default:
		return fmt.Errorf("unknown model %q (gmm or nn)", model)
	}
}

// plannerSpec builds the planner's model description from the CLI flags.
func plannerSpec(model string, k, iters int, hidden string, epochs int) (plan.ModelSpec, error) {
	switch model {
	case "gmm":
		return plan.ModelSpec{Family: plan.FamilyGMM, K: k, Iters: iters}, nil
	case "nn":
		sizes, err := parseHidden(hidden)
		if err != nil {
			return plan.ModelSpec{}, err
		}
		return plan.ModelSpec{Family: plan.FamilyNN, Hidden: sizes, Epochs: epochs}, nil
	default:
		return plan.ModelSpec{}, fmt.Errorf("unknown model %q (gmm or nn)", model)
	}
}

// printPlan renders the -explain cost table.
func printPlan(pl *plan.Plan, fact, dims string) {
	fmt.Printf("strategy plan for %s over %s ⋈ %s (from catalog TableStats)\n", pl.Model, fact, dims)
	fmt.Printf("  %-14s %14s %14s %12s %14s\n", "strategy", "est Mmul", "est Madd", "est pages", "score")
	for _, e := range pl.Estimates {
		marker := " "
		if e.Strategy == pl.Chosen {
			marker = "*"
		}
		fmt.Printf("%s %-14s %14.2f %14.2f %12d %14.4g\n",
			marker, e.Strategy, float64(e.Ops.Mul)/1e6, float64(e.Ops.Adds)/1e6, e.Pages, e.Score)
	}
	fmt.Printf("  planner would choose: %s\n", pl.Chosen)
}
