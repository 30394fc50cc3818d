// Command datagen creates a workload database on disk, either a synthetic
// star schema with explicit cardinalities or a simulated instance of one of
// the paper's real datasets (Tables IV/V).
//
// Usage:
//
//	datagen -db orders.db -ns 100000 -nr 1000 -ds 5 -dr 15 [-nr2 … -dr2 …]
//	datagen -db orders.db -ns 100000 -nr 1000 -ds 5 -dr 15 -depth 3 -dims-per-level 2
//	datagen -db walmart.db -shape Walmart -scale 0.01
//	datagen -list
//
// The resulting database can be trained with the train command.
package main

import (
	"flag"
	"fmt"
	"os"

	"factorml/internal/data"
	"factorml/internal/storage"
)

func main() {
	dbDir := flag.String("db", "", "database directory to create")
	ns := flag.Int("ns", 100000, "fact-table cardinality")
	nr := flag.Int("nr", 1000, "dimension-table cardinality")
	ds := flag.Int("ds", 5, "fact feature width")
	dr := flag.Int("dr", 15, "dimension feature width")
	nr2 := flag.Int("nr2", 0, "second dimension table cardinality (0 = binary join)")
	dr2 := flag.Int("dr2", 0, "second dimension table feature width")
	depth := flag.Int("depth", 1, "dimension-hierarchy depth (1 = star, >1 = snowflake)")
	dimsPerLevel := flag.Int("dims-per-level", 1, "sub-dimension tables per dimension at each deeper level (needs -depth > 1)")
	seed := flag.Int64("seed", 1, "generator seed")
	target := flag.Bool("target", true, "generate a regression target (needed for NN)")
	shape := flag.String("shape", "", "generate a simulated real dataset by name instead")
	scale := flag.Float64("scale", 1.0, "scale factor for -shape")
	list := flag.Bool("list", false, "list the available real dataset shapes and exit")
	flag.Parse()

	if *list {
		fmt.Println("Available real dataset shapes (Tables IV/V of the paper):")
		for _, s := range data.RealShapes {
			kind := "binary"
			if s.Multi() {
				kind = "3-way"
			}
			fmt.Printf("  %-18s nS=%-8d dS=%-4d nR=%-6d dR=%-4d %s sparse=%v\n",
				s.Name, s.NS, s.DS, s.NR, s.DR, kind, s.Sparse)
		}
		return
	}
	if *dbDir == "" {
		fmt.Fprintln(os.Stderr, "datagen: -db is required (or -list)")
		os.Exit(2)
	}
	if err := validateFlags(*ns, *nr, *ds, *dr, *nr2, *dr2, *depth, *dimsPerLevel, *scale, *shape); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(2)
	}
	if err := run(*dbDir, *ns, *nr, *ds, *dr, *nr2, *dr2, *depth, *dimsPerLevel, *seed, *target, *shape, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

// validateFlags rejects numeric flag values that would otherwise panic or
// loop in the generator (negative cardinalities, zero-or-negative widths,
// a second dimension table without a width, an out-of-range scale).
func validateFlags(ns, nr, ds, dr, nr2, dr2, depth, dimsPerLevel int, scale float64, shape string) error {
	if shape != "" {
		if scale <= 0 || scale > 1 {
			return fmt.Errorf("-scale must be in (0,1], got %g", scale)
		}
		return nil
	}
	if depth < 1 {
		return fmt.Errorf("-depth must be >= 1, got %d", depth)
	}
	if dimsPerLevel < 1 {
		return fmt.Errorf("-dims-per-level must be >= 1, got %d", dimsPerLevel)
	}
	if dimsPerLevel > 1 && depth == 1 {
		return fmt.Errorf("-dims-per-level needs -depth > 1, got depth %d", depth)
	}
	if ns < 1 {
		return fmt.Errorf("-ns must be >= 1, got %d", ns)
	}
	if nr < 1 {
		return fmt.Errorf("-nr must be >= 1, got %d", nr)
	}
	if ds < 1 {
		return fmt.Errorf("-ds must be >= 1, got %d", ds)
	}
	if dr < 1 {
		return fmt.Errorf("-dr must be >= 1, got %d", dr)
	}
	if nr2 < 0 || dr2 < 0 {
		return fmt.Errorf("-nr2 and -dr2 must be >= 0, got %d and %d", nr2, dr2)
	}
	if nr2 > 0 && dr2 < 1 {
		return fmt.Errorf("-dr2 must be >= 1 when -nr2 is set, got %d", dr2)
	}
	return nil
}

func run(dbDir string, ns, nr, ds, dr, nr2, dr2, depth, dimsPerLevel int, seed int64, target bool, shape string, scale float64) error {
	db, err := storage.Open(dbDir)
	if err != nil {
		return err
	}
	defer db.Close()

	if shape != "" {
		sh, err := data.ShapeByName(shape)
		if err != nil {
			return err
		}
		spec, err := data.GenerateShape(db, sh, scale, seed)
		if err != nil {
			return err
		}
		report(spec.S.Schema().Name, spec.S.NumTuples(), len(spec.Rs))
		return nil
	}

	cfg := data.SynthConfig{
		NS: ns, NR: []int{nr}, DS: ds, DR: []int{dr},
		Depth: depth, DimsPerLevel: dimsPerLevel,
		Seed: seed, WithTarget: target,
	}
	if nr2 > 0 {
		cfg.NR = append(cfg.NR, nr2)
		cfg.DR = append(cfg.DR, dr2)
	}
	spec, err := data.Generate(db, "synth", cfg)
	if err != nil {
		return err
	}
	report(spec.S.Schema().Name, spec.S.NumTuples(), len(spec.Rs))
	return nil
}

func report(fact string, n int64, dims int) {
	fmt.Printf("created fact table %q (%d tuples) with %d dimension table(s)\n", fact, n, dims)
}
