package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/plan"
	"factorml/internal/storage"
)

// gradSchema builds a star whose fact rows repeat every dimension tuple
// many times and whose every 13th row names no R1 tuple: R1 spans several
// one-page blocks, R2 is resident.
func gradSchema(t *testing.T, db *storage.Database) *join.Spec {
	t.Helper()
	rng := rand.New(rand.NewSource(47))
	dim := func(name string, n, d int) *storage.Table {
		cols := make([]string, d)
		for k := range cols {
			cols[k] = fmt.Sprintf("x%d", k)
		}
		tbl, err := db.CreateTable(&storage.Schema{Name: name, Keys: []string{"id"}, Features: cols})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			x := make([]float64, d)
			for k := range x {
				x[k] = rng.NormFloat64()
			}
			if err := tbl.Append(&storage.Tuple{Keys: []int64{int64(i)}, Features: x}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tbl.Flush(); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	r1, r2 := dim("R1", 700, 3), dim("R2", 7, 2)
	s, err := db.CreateTable(&storage.Schema{Name: "S", Keys: []string{"sid", "fk1", "fk2"}, Features: []string{"a", "b"},
		Refs: []string{"R1", "R2"}, HasTarget: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 900; i++ {
		fk1 := int64(rng.Intn(700))
		if i%13 == 5 {
			fk1 = 1000 + int64(i) // dangles
		}
		a, b := rng.NormFloat64(), rng.NormFloat64()
		tp := &storage.Tuple{Keys: []int64{int64(i), fk1, int64(rng.Intn(7))}, Features: []float64{a, b}, Target: 0.5*a - b}
		if err := s.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	spec := &join.Spec{S: s, Rs: []*storage.Table{r1, r2}, BlockPages: 1}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// denseReference trains cfg's network for one epoch as the dense trainer
// does, by the definition of the gradient: every joined row's rank-1
// update δ⁰·xᵀ of the input layer, a step per pass (Epoch) or per R1
// block (Block).
func denseReference(t *testing.T, spec *join.Spec, cfg Config) *Network {
	t.Helper()
	r, err := join.NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	type example struct {
		x []float64
		y float64
	}
	var blocks [][]example
	err = r.Run(join.Callbacks{
		OnBlockStart: func([]join.Arena) error { blocks = append(blocks, nil); return nil },
		OnMatch: func(s *storage.Tuple, pos []int) error {
			b := &blocks[len(blocks)-1]
			*b = append(*b, example{r.AppendRow(nil, s, pos), s.Target})
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 3 {
		t.Fatalf("the join has %d blocks, want several", len(blocks))
	}
	if cfg.Mode == Epoch {
		var all []example
		for _, b := range blocks {
			all = append(all, b...)
		}
		blocks = [][]example{all}
	}
	net, err := initNetwork(cfg.withDefaults(), len(blocks[0][0].x))
	if err != nil {
		t.Fatal(err)
	}
	w := newWorkspace(net)
	for _, b := range blocks {
		w.zeroGrads()
		for _, e := range b {
			w.backward(net.forward(&w.ForwardScratch, e.x), e.y)
			linalg.Axpy(1, w.delta[0], w.gB[0])
			linalg.OuterAccum(w.gW[0], 1, w.delta[0], e.x)
		}
		w.applyStep(cfg.LearningRate, len(b))
	}
	return net
}

// TestFactorizedInputGradient checks F-NN's input-layer gradient, summed
// per dimension tuple and flushed as one outer product per touched tuple,
// against the dense ΔᵀX on a star with repeated tuples and a dangling key:
// after one epoch, every parameter equals the dense reference's to 1e-12
// of how far the epoch moved it. Under Epoch updates that epoch is one
// step, so the input-layer comparison is gW0 itself. Workers 1 and 3 give
// the same bits.
func TestFactorizedInputGradient(t *testing.T) {
	db := openDB(t)
	spec := gradSchema(t, db)
	for _, mode := range []BatchMode{Epoch, Block} {
		cfg := Config{Hidden: []int{6, 4}, Epochs: 1, LearningRate: 0.5, Mode: mode}
		init, err := initNetwork(cfg.withDefaults(), 7)
		if err != nil {
			t.Fatal(err)
		}
		ref := denseReference(t, spec, cfg)
		var first *Result
		for _, workers := range []int{1, 3} {
			cfg.NumWorkers = workers
			f, err := Train(db, spec, plan.Factorized, cfg)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("mode=%d workers=%d", mode, workers)
			for l := range ref.W {
				moved, movedB := init.W[l].MaxAbsDiff(ref.W[l]), linalg.MaxAbsDiffVec(init.B[l], ref.B[l])
				if moved == 0 || movedB == 0 {
					t.Fatalf("%s: the reference did not move layer %d", name, l)
				}
				if d := f.Net.W[l].MaxAbsDiff(ref.W[l]); d > 1e-12*moved {
					t.Errorf("%s: layer %d weights %g from the dense reference, %.3g of the step", name, l, d, d/moved)
				}
				if d := linalg.MaxAbsDiffVec(f.Net.B[l], ref.B[l]); d > 1e-12*movedB {
					t.Errorf("%s: layer %d biases %g from the dense reference, %.3g of the step", name, l, d, d/movedB)
				}
			}
			if first == nil {
				first = f
			} else {
				assertNetsBitIdentical(t, name, first, f)
			}
		}
	}
}
