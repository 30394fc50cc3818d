package serve_test

import (
	"fmt"
	"testing"

	"factorml/internal/data"
	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/nn"
	"factorml/internal/serve"
	"factorml/internal/storage"
)

// testStar generates a small two-dimension star schema with a target.
func testStar(t testing.TB, dir string) (*storage.Database, *join.Spec) {
	t.Helper()
	return testStarOf(t, dir, []int{25, 10}, []int{2, 2})
}

// testStarOf generates a small star schema with a target: 600 fact tuples
// of width 3 over one dimension table per nr entry, nr[j] tuples of width
// dr[j].
func testStarOf(t testing.TB, dir string, nr, dr []int) (*storage.Database, *join.Spec) {
	t.Helper()
	db, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := data.Generate(db, "synth", data.SynthConfig{
		NS: 600, NR: nr, DS: 3, DR: dr, Seed: 2, WithTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db, spec
}

// sparseKeyStar copies a generated star into tables whose dimension key i
// is stored as 10·i − 7 (the fact table's foreign keys mapped alike): a
// key space the resident indexes serve through their key maps.
func sparseKeyStar(t testing.TB, db *storage.Database, spec *join.Spec) *join.Spec {
	t.Helper()
	sparse := func(k int64) int64 { return 10*k - 7 }
	copyTable := func(src *storage.Table, name string, refs []string, mapKeys func([]int64)) *storage.Table {
		sch := *src.Schema()
		sch.Name, sch.Refs = name, refs
		sch.Keys = append([]string{}, sch.Keys...)
		sch.Features = append([]string{}, sch.Features...)
		dst, err := db.CreateTable(&sch)
		if err != nil {
			t.Fatal(err)
		}
		sc := src.NewScanner()
		for sc.Next() {
			tp := sc.Tuple()
			keys := append([]int64{}, tp.Keys...)
			mapKeys(keys)
			if err := dst.Append(&storage.Tuple{Keys: keys, Features: tp.Features, Target: tp.Target}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := dst.Flush(); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	var dims []*storage.Table
	var names []string
	for j, r := range spec.Rs {
		names = append(names, fmt.Sprintf("sparse_R%d", j+1))
		dims = append(dims, copyTable(r, names[j], nil, func(k []int64) { k[0] = sparse(k[0]) }))
	}
	fact := copyTable(spec.S, "sparse_S", names, func(k []int64) {
		for i := 1; i < len(k); i++ {
			k[i] = sparse(k[i])
		}
	})
	sp, err := join.NewSnowflakeSpec(fact, dims, db.Table)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// trainModels trains one NN and one GMM over the spec (factorized,
// sequential — the serving tests own the worker-count sweeps).
func trainModels(t testing.TB, db *storage.Database, spec *join.Spec) (*nn.Network, *gmm.Model) {
	t.Helper()
	nres, err := nn.TrainF(db, spec, nn.Config{Hidden: []int{8}, Epochs: 2, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	gres, err := gmm.TrainF(db, spec, gmm.Config{K: 3, MaxIter: 3, Tol: 1e-12, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return nres.Net, gres.Model
}

// factRows scans the fact table into engine request rows and, for expected-
// value computation, the assembled joined feature vectors.
func factRows(t testing.TB, spec *join.Spec, limit int) (rows []serve.Row, joined [][]float64) {
	t.Helper()
	var idxs []*join.ResidentIndex
	for _, r := range spec.Rs {
		ix, err := join.BuildResidentIndex(r)
		if err != nil {
			t.Fatal(err)
		}
		idxs = append(idxs, ix)
	}
	sc := spec.S.NewScanner()
	for sc.Next() {
		tp := sc.Tuple()
		row := serve.Row{
			Fact: append([]float64{}, tp.Features...),
			FKs:  append([]int64{}, tp.Keys[1:]...),
		}
		x := append([]float64{}, tp.Features...)
		for j, fk := range row.FKs {
			feats, ok := idxs[j].Lookup(fk)
			if !ok {
				t.Fatalf("fact tuple references missing fk %d in dim %d", fk, j)
			}
			x = append(x, feats...)
		}
		rows = append(rows, row)
		joined = append(joined, x)
		if limit > 0 && len(rows) == limit {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows, joined
}

// newTestEngine builds a registry+engine over the spec's dimension tables.
func newTestEngine(t testing.TB, db *storage.Database, spec *join.Spec, cfg serve.EngineConfig) (*serve.Registry, *serve.Engine) {
	t.Helper()
	reg, err := serve.NewRegistry(db)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := serve.NewEngine(reg, spec.Plan(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return reg, eng
}
