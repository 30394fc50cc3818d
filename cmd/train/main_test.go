package main

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"factorml"
	"factorml/internal/storage"
)

// goodFlags is a command line validateFlags accepts, for the tables below
// to break one flag at a time.
func goodFlags() options {
	return options{
		dbDir: "db", fact: "synth_S", dims: "synth_R1,synth_R2",
		model: "gmm", algo: "f", k: 3, iters: 2, tol: 1e-4,
		hidden: "6", act: "sigmoid", epochs: 2, lr: 0.05, seed: 1,
	}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name string
		set  func(*options)
		want string // substring of the error; "" means accepted
	}{
		{"defaults", func(*options) {}, ""},
		{"algo m", func(o *options) { o.algo = "m" }, ""},
		{"algo s", func(o *options) { o.algo = "s" }, ""},
		{"algo auto", func(o *options) { o.algo = "auto" }, ""},
		{"algo unknown", func(o *options) { o.algo = "x" }, `unknown -algo "x"`},
		{"algo empty", func(o *options) { o.algo = "" }, "unknown -algo"},
		{"workers negative", func(o *options) { o.workers = -2 }, "-workers must be >= 0"},
		{"k zero", func(o *options) { o.k = 0 }, "-k must be >= 1"},
		{"iters zero", func(o *options) { o.iters = 0 }, "-iters must be >= 1"},
		{"tol negative", func(o *options) { o.tol = -1 }, "-tol must be >= 0"},
		{"nn ignores gmm flags", func(o *options) { o.model, o.k = "nn", 0 }, ""},
		{"nn epochs zero", func(o *options) { o.model, o.epochs = "nn", 0 }, "-epochs must be >= 1"},
		{"nn lr zero", func(o *options) { o.model, o.lr = "nn", 0 }, "-lr must be > 0"},
		{"gmm ignores nn flags", func(o *options) { o.epochs = 0 }, ""},
		{"save ok", func(o *options) { o.save = "orders-nn_2" }, ""},
		{"save with space", func(o *options) { o.save = "bad name" }, "not a valid model name"},
		{"save leading dash", func(o *options) { o.save = "-m" }, "not a valid model name"},
	}
	for _, tc := range cases {
		o := goodFlags()
		tc.set(&o)
		err := validateFlags(&o)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestParseHidden(t *testing.T) {
	cases := []struct {
		in   string
		want []int
	}{
		{"50", []int{50}},
		{"8,4", []int{8, 4}},
		{" 8 , 4 ", []int{8, 4}},
		{"", nil},
		{"8,,4", nil},
		{"8,x", nil},
		{"0", nil},
		{"8,-1", nil},
	}
	for _, tc := range cases {
		got, err := parseHidden(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("parseHidden(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseHidden(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// datagenDB writes the database `datagen -nr 12 -nr2 5` would: synth_S
// referencing synth_R1 and synth_R2, the references recorded in the catalog.
func datagenDB(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	db, err := factorml.Open(dir, factorml.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = factorml.GenerateSynthetic(db, "synth", factorml.SyntheticConfig{
		NS: 300, NR: []int{12, 5}, DS: 3, DR: []int{4, 2}, WithTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDimsCheckedAgainstCatalog: the join is the one the catalog records.
// A -dims list in another order used to be trusted — fk1 probed into
// synth_R2 — and trained a different model with exit status 0.
func TestDimsCheckedAgainstCatalog(t *testing.T) {
	dir := datagenDB(t)
	train := func(dims string) (string, error) {
		o := goodFlags()
		o.dbDir, o.dims, o.workers = dir, dims, 1
		var out bytes.Buffer
		err := run(&o, &out)
		return out.String(), err
	}
	want, err := train("synth_R1,synth_R2")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(want, "log-likelihood:") {
		t.Fatalf("no log-likelihood in the output:\n%s", want)
	}
	if got, err := train(" synth_R1 , synth_R2 "); err != nil || reportLine(got, "log-likelihood:") != reportLine(want, "log-likelihood:") {
		t.Fatalf("spaces around the names changed the run (%v):\n%s\nwant\n%s", err, got, want)
	}
	for _, dims := range []string{
		"synth_R2,synth_R1",          // permuted
		"synth_R1,synth_Rx",          // a wrong name
		"synth_R1",                   // one missing
		"synth_R1,synth_R2,synth_R2", // one too many
	} {
		out, err := train(dims)
		if !errors.Is(err, factorml.ErrDimsMismatch) {
			t.Fatalf("-dims %s: error = %v, want ErrDimsMismatch (main exits 2 on it); output:\n%s", dims, err, out)
		}
		if !strings.Contains(err.Error(), "synth_R1,synth_R2") {
			t.Fatalf("-dims %s: the error does not name the expected list: %v", dims, err)
		}
		if out != "" {
			t.Fatalf("-dims %s: trained before refusing:\n%s", dims, out)
		}
	}
}

// TestDimsNameTheJoinWithoutCatalogReferences: a fact table whose catalog
// entry records no references (created below the facade) is joined to the
// tables -dims names, as it always was.
func TestDimsNameTheJoinWithoutCatalogReferences(t *testing.T) {
	dir := t.TempDir()
	sdb, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	create := func(s *storage.Schema, rows int, tuple func(i int) *storage.Tuple) {
		t.Helper()
		tbl, err := sdb.CreateTable(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			if err := tbl.Append(tuple(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	create(&storage.Schema{Name: "A", Keys: []string{"rid"}, Features: []string{"a"}}, 4,
		func(i int) *storage.Tuple {
			return &storage.Tuple{Keys: []int64{int64(i)}, Features: []float64{float64(i)}}
		})
	create(&storage.Schema{Name: "B", Keys: []string{"rid"}, Features: []string{"b1", "b2"}}, 3,
		func(i int) *storage.Tuple {
			return &storage.Tuple{Keys: []int64{int64(i)}, Features: []float64{float64(i), -float64(i)}}
		})
	create(&storage.Schema{Name: "S", Keys: []string{"sid", "fk1", "fk2"}, Features: []string{"x"}}, 60,
		func(i int) *storage.Tuple {
			return &storage.Tuple{Keys: []int64{int64(i), int64(i % 4), int64(i % 3)}, Features: []float64{float64(i%7) + 0.25*float64(i%5)}}
		})
	if err := sdb.Close(); err != nil {
		t.Fatal(err)
	}

	o := goodFlags()
	o.dbDir, o.fact, o.dims, o.k, o.workers = dir, "S", "A,B", 2, 1
	var out bytes.Buffer
	if err := run(&o, &out); err != nil {
		t.Fatalf("-dims A,B over a fact table with no recorded references: %v", err)
	}
	if !strings.Contains(out.String(), "F-GMM over S ⋈ A,B") {
		t.Fatalf("unexpected output:\n%s", out.String())
	}
	o.dims = "A"
	if err := run(&o, &out); err == nil || errors.Is(err, factorml.ErrDimsMismatch) {
		t.Fatalf("-dims A for a fact table with two foreign keys: error = %v, want the join's own arity error", err)
	}
}

// reportLine returns the line of a training report that carries label.
func reportLine(out, label string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.Contains(l, label) {
			return l
		}
	}
	return ""
}

// TestAutoSaveMatchesFacade: `train -algo auto -save m` is the facade's
// TrainGMM / TrainNN(ds, Auto, …) followed by the lineage save — the saved
// parameters are the facade's bit for bit, and the lineage names the
// strategy the planner resolved Auto to.
func TestAutoSaveMatchesFacade(t *testing.T) {
	for _, model := range []string{"gmm", "nn"} {
		dir := datagenDB(t)
		o := goodFlags()
		o.dbDir, o.model, o.algo, o.save = dir, model, "auto", "m"
		o.hidden, o.act = "6,3", "tanh"
		var out bytes.Buffer
		if err := run(&o, &out); err != nil {
			t.Fatalf("%s: %v", model, err)
		}

		db, err := factorml.Open(dir, factorml.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fact, err := db.FactTable("synth_S")
		if err != nil {
			t.Fatal(err)
		}
		ds, err := db.Dataset(fact)
		if err != nil {
			t.Fatal(err)
		}
		var chosen factorml.Algorithm
		switch model {
		case "gmm":
			res, err := factorml.TrainGMM(ds, factorml.Auto, factorml.GMMConfig{K: o.k, MaxIter: o.iters, Tol: o.tol, Seed: o.seed})
			if err != nil {
				t.Fatal(err)
			}
			saved, err := db.LoadGMM("m")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(saved, res.Model) {
				t.Fatalf("gmm: saved model differs from TrainGMM(ds, Auto): max diff %g", saved.MaxParamDiff(res.Model))
			}
			chosen = res.Stats.Plan.Chosen
		case "nn":
			res, err := factorml.TrainNN(ds, factorml.Auto, factorml.NNConfig{
				Hidden: []int{6, 3}, Act: factorml.Tanh, Epochs: o.epochs, LearningRate: o.lr, Seed: o.seed})
			if err != nil {
				t.Fatal(err)
			}
			saved, err := db.LoadNN("m")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(saved, res.Net) {
				t.Fatalf("nn: saved network differs from TrainNN(ds, Auto): max diff %g", saved.MaxParamDiff(res.Net))
			}
			chosen = res.Stats.Plan.Chosen
		}
		if !strings.Contains(out.String(), "planner chose "+chosen.String()+" (") {
			t.Fatalf("%s: output does not announce %s:\n%s", model, chosen, out.String())
		}
		infos, err := db.Models()
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) != 1 || infos[0].Name != "m" || string(infos[0].Kind) != model || infos[0].Lineage == nil {
			t.Fatalf("%s: registry holds %+v", model, infos)
		}
		if lin := infos[0].Lineage; lin.Strategy != chosen.String() || lin.TrainingRows != 300 || lin.Baseline == nil {
			t.Fatalf("%s: lineage = %+v, want strategy %s over 300 rows with a baseline", model, lin, chosen)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
