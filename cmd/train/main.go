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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"factorml"
)

// options holds the parsed command line.
type options struct {
	dbDir, fact, dims string
	model, algo       string
	k, iters          int
	tol               float64
	hidden, act       string
	epochs            int
	lr                float64
	seed              int64
	workers           int
	save              string
	explain           bool
	tracePath         string
}

func main() {
	var o options
	flag.StringVar(&o.dbDir, "db", "", "database directory (from datagen)")
	flag.StringVar(&o.fact, "fact", "", "fact table name")
	flag.StringVar(&o.dims, "dims", "", "comma-separated dimension table names, join order; checked against the references the catalog records for the fact table")
	flag.StringVar(&o.model, "model", "gmm", "model: gmm or nn")
	flag.StringVar(&o.algo, "algo", "f", "algorithm: m (materialized), s (streaming), f (factorized), auto (cost-based planner)")
	flag.IntVar(&o.k, "k", 5, "GMM components")
	flag.IntVar(&o.iters, "iters", 10, "GMM max EM iterations")
	flag.Float64Var(&o.tol, "tol", 1e-4, "GMM convergence tolerance")
	flag.StringVar(&o.hidden, "hidden", "50", "NN hidden layer sizes, comma-separated")
	flag.StringVar(&o.act, "act", "sigmoid", "NN activation: sigmoid, tanh, relu, identity")
	flag.IntVar(&o.epochs, "epochs", 10, "NN training epochs")
	flag.Float64Var(&o.lr, "lr", 0.05, "NN learning rate")
	flag.Int64Var(&o.seed, "seed", 1, "initialization seed")
	flag.IntVar(&o.workers, "workers", 0, "training worker pool size (0 = all CPUs, 1 = sequential); the result is bit-identical for every value")
	flag.StringVar(&o.save, "save", "", "save the trained model in the database's model registry under this name (for the serve command)")
	flag.BoolVar(&o.explain, "explain", false, "print the planner's per-strategy cost table for this dataset and configuration, then exit without training")
	flag.StringVar(&o.tracePath, "trace", "", "write the per-pass phase-timing breakdown (scan, cache fill, fold, ordered merge) as JSON to this file and print the table after training")
	flag.Parse()

	if o.dbDir == "" || o.fact == "" || o.dims == "" {
		fmt.Fprintln(os.Stderr, "train: -db, -fact and -dims are required")
		os.Exit(2)
	}
	if err := validateFlags(&o); err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		os.Exit(2)
	}
	if err := run(&o, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "train:", err)
		if errors.Is(err, factorml.ErrDimsMismatch) {
			os.Exit(2) // a -dims list the catalog contradicts is a usage error
		}
		os.Exit(1)
	}
}

// validateFlags rejects unknown strategies and out-of-range numeric flags
// up front with a clear message, instead of passing them through to the
// trainers (where a negative -workers would silently clamp to sequential
// and a bad -save name would surface only after training).
func validateFlags(o *options) error {
	if _, err := factorml.ParseAlgorithm(o.algo); err != nil {
		return fmt.Errorf("unknown -algo %q: valid strategies are m (materialized), s (streaming), f (factorized), auto (cost-based planner)", o.algo)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (0 = all CPUs, 1 = sequential), got %d", o.workers)
	}
	switch o.model {
	case "gmm":
		if o.k < 1 {
			return fmt.Errorf("-k must be >= 1, got %d", o.k)
		}
		if o.iters < 1 {
			return fmt.Errorf("-iters must be >= 1, got %d", o.iters)
		}
		if o.tol < 0 {
			return fmt.Errorf("-tol must be >= 0, got %g", o.tol)
		}
	case "nn":
		if o.epochs < 1 {
			return fmt.Errorf("-epochs must be >= 1, got %d", o.epochs)
		}
		if o.lr <= 0 {
			return fmt.Errorf("-lr must be > 0, got %g", o.lr)
		}
		// An unknown -model is rejected by run's switch; this function only
		// range-checks the numeric flags of the known families.
	}
	if o.save != "" && !factorml.ValidModelName(o.save) {
		return fmt.Errorf("-save %q is not a valid model name (1-64 chars: letters, digits, '_', '-', starting alphanumeric)", o.save)
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

// parseActivation reads -act by the name the activation prints.
func parseActivation(name string) (factorml.Activation, error) {
	for _, a := range []factorml.Activation{factorml.Sigmoid, factorml.Tanh, factorml.ReLU, factorml.Identity} {
		if a.String() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown activation %q", name)
}

// splitDims parses the -dims list.
func splitDims(dims string) []string {
	names := strings.Split(dims, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	return names
}

func run(o *options, out io.Writer) error {
	algo, err := factorml.ParseAlgorithm(o.algo)
	if err != nil {
		return err
	}
	// letter is the -algo spelling of the strategy that runs: the paper's
	// one-letter prefix (auto, spelled out, until the planner resolves it).
	letter := func() string {
		if algo == factorml.Auto {
			return algo.String()
		}
		return algo.String()[:1]
	}

	// -trace observes every pass the training makes (factor.SetObserver /
	// parallel.SetWorkerObserver) and, on the way out, writes the
	// aggregated phase-timing artifact keyed by the strategy that actually
	// ran (after auto resolution — the deferred closure reads the final
	// algo value).
	if o.tracePath != "" {
		pt := newPassTracer()
		defer func() {
			pt.stop()
			if werr := pt.write(out, o.tracePath, o.model, letter(), parallelWorkers(o.workers)); werr != nil {
				fmt.Fprintln(os.Stderr, "train: writing -trace artifact:", werr)
			}
		}()
	}

	db, err := factorml.Open(o.dbDir, factorml.Options{})
	if err != nil {
		return err
	}
	defer db.Close()

	// The join is the one the catalog records for the fact table (sub-
	// dimension references of a snowflake included); -dims must agree with
	// it, and names the direct dimension tables only when the catalog
	// records none.
	fact, err := db.FactTable(o.fact, splitDims(o.dims)...)
	if err != nil {
		return err
	}
	ds, err := db.Dataset(fact)
	if err != nil {
		return err
	}

	// choose consults the planner for -explain and -algo auto: catalog
	// table statistics price every strategy with the trainers' own flop
	// accounting plus a page-I/O model. It reports whether -explain has
	// printed the table, in which case nothing is trained.
	choose := func(price func() (*factorml.StrategyPlan, error)) (explained bool, err error) {
		if !o.explain && algo != factorml.Auto {
			return false, nil
		}
		pl, err := price()
		if err != nil {
			return false, err
		}
		if o.explain {
			printPlan(out, pl, o.fact, o.dims)
			return true, nil
		}
		algo = pl.Chosen
		best := pl.Estimates[0]
		fmt.Fprintf(out, "planner chose %s (est %.1f Mflops, %d pages, score %.3g)\n",
			pl.Chosen, float64(best.Ops.Total())/1e6, best.Pages, best.Score)
		return false, nil
	}

	switch o.model {
	case "gmm":
		cfg := factorml.GMMConfig{K: o.k, MaxIter: o.iters, Tol: o.tol, Seed: o.seed, NumWorkers: o.workers}
		if explained, err := choose(func() (*factorml.StrategyPlan, error) { return factorml.PlanGMM(ds, cfg) }); explained || err != nil {
			return err
		}
		res, err := factorml.TrainGMM(ds, algo, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s-GMM over %s ⋈ %s\n", strings.ToUpper(letter()), o.fact, o.dims)
		fmt.Fprintf(out, "  iterations:     %d (converged=%v)\n", res.Stats.Iters, res.Stats.Converged)
		fmt.Fprintf(out, "  log-likelihood: %.4f\n", res.Stats.FinalLL())
		fmt.Fprintf(out, "  train time:     %v\n", res.Stats.TrainTime)
		fmt.Fprintf(out, "  multiplies:     %d\n", res.Stats.Ops.Mul)
		fmt.Fprintf(out, "  page IO:        %v\n", res.Stats.IO)
		if o.save == "" {
			return nil
		}
		// A saved model carries training lineage: one extra streaming pass
		// over the join captures the per-column baseline statistics (plus a
		// per-row quality baseline) that the serve command's health monitor
		// scores live drift against.
		lin, err := factorml.GMMLineage(ds, res.Model, algo.String())
		if err != nil {
			return fmt.Errorf("capturing training baseline: %w", err)
		}
		if err := db.SaveGMMLineage(o.save, res.Model, lin); err != nil {
			return err
		}
		return printSaved(out, db, o.save)

	case "nn":
		sizes, err := parseHidden(o.hidden)
		if err != nil {
			return err
		}
		activation, err := parseActivation(o.act)
		if err != nil {
			return err
		}
		cfg := factorml.NNConfig{Hidden: sizes, Act: activation, Epochs: o.epochs, LearningRate: o.lr, Seed: o.seed, NumWorkers: o.workers}
		if explained, err := choose(func() (*factorml.StrategyPlan, error) { return factorml.PlanNN(ds, cfg) }); explained || err != nil {
			return err
		}
		res, err := factorml.TrainNN(ds, algo, cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s-NN over %s ⋈ %s\n", strings.ToUpper(letter()), o.fact, o.dims)
		fmt.Fprintf(out, "  epochs:      %d\n", res.Stats.Epochs)
		fmt.Fprintf(out, "  final loss:  %.6f\n", res.Stats.FinalLoss())
		fmt.Fprintf(out, "  train time:  %v\n", res.Stats.TrainTime)
		fmt.Fprintf(out, "  multiplies:  %d\n", res.Stats.Ops.Mul)
		fmt.Fprintf(out, "  page IO:     %v\n", res.Stats.IO)
		if o.save == "" {
			return nil
		}
		lin, err := factorml.NNLineage(ds, res.Net, algo.String()) // see the gmm case
		if err != nil {
			return fmt.Errorf("capturing training baseline: %w", err)
		}
		if err := db.SaveNNLineage(o.save, res.Net, lin); err != nil {
			return err
		}
		return printSaved(out, db, o.save)

	default:
		return fmt.Errorf("unknown model %q (gmm or nn)", o.model)
	}
}

// printSaved reports the version the registry gave the model just saved.
func printSaved(out io.Writer, db *factorml.DB, name string) error {
	infos, err := db.Models()
	if err != nil {
		return err
	}
	for _, info := range infos {
		if info.Name == name {
			fmt.Fprintf(out, "  saved:          %s model %q (version %d)\n", info.Kind, name, info.Version)
		}
	}
	return nil
}

// printPlan renders the -explain cost table.
func printPlan(out io.Writer, pl *factorml.StrategyPlan, fact, dims string) {
	fmt.Fprintf(out, "strategy plan for %s over %s ⋈ %s (from catalog TableStats)\n", pl.Model, fact, dims)
	fmt.Fprintf(out, "  %-14s %14s %14s %12s %14s\n", "strategy", "est Mmul", "est Madd", "est pages", "score")
	for _, e := range pl.Estimates {
		marker := " "
		if e.Strategy == pl.Chosen {
			marker = "*"
		}
		fmt.Fprintf(out, "%s %-14s %14.2f %14.2f %12d %14.4g\n",
			marker, e.Strategy, float64(e.Ops.Mul)/1e6, float64(e.Ops.Adds)/1e6, e.Pages, e.Score)
	}
	fmt.Fprintf(out, "  planner would choose: %s\n", pl.Chosen)
}
