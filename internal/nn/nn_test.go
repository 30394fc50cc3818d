package nn

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"factorml/internal/data"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/plan"
	"factorml/internal/storage"
)

func openDB(t *testing.T) *storage.Database {
	t.Helper()
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func synthBinary(t *testing.T, db *storage.Database, nS, nR, dS, dR int) *join.Spec {
	t.Helper()
	spec, err := data.Generate(db, "t", data.SynthConfig{
		NS: nS, NR: []int{nR}, DS: dS, DR: []int{dR}, Seed: 21, WithTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func synthMulti(t *testing.T, db *storage.Database, nS int, nR []int, dS int, dR []int) *join.Spec {
	t.Helper()
	spec, err := data.Generate(db, "t", data.SynthConfig{
		NS: nS, NR: nR, DS: dS, DR: dR, Seed: 23, WithTarget: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func trainAll3(t *testing.T, db *storage.Database, spec *join.Spec, cfg Config) (m, s, f *Result) {
	t.Helper()
	var err error
	if m, err = Train(db, spec, plan.Materialized, cfg); err != nil {
		t.Fatal(err)
	}
	if s, err = Train(db, spec, plan.Streaming, cfg); err != nil {
		t.Fatal(err)
	}
	if f, err = TrainF(db, spec, cfg); err != nil {
		t.Fatal(err)
	}
	return m, s, f
}

// Headline invariant: the three trainers produce the same network.
func TestExactnessBinaryEpoch(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 400, 25, 3, 4)
	for _, act := range []Activation{Sigmoid, Tanh, ReLU} {
		cfg := Config{Hidden: []int{8}, Act: act, Epochs: 5, LearningRate: 0.1}
		m, s, f := trainAll3(t, db, spec, cfg)
		if d := m.Net.MaxParamDiff(s.Net); d > 1e-9 {
			t.Fatalf("%s: M vs S param diff %v", act, d)
		}
		if d := s.Net.MaxParamDiff(f.Net); d > 1e-7 {
			t.Fatalf("%s: S vs F param diff %v", act, d)
		}
		// Loss traces must coincide.
		for i := range m.Stats.Loss {
			if math.Abs(m.Stats.Loss[i]-f.Stats.Loss[i]) > 1e-7*(1+math.Abs(m.Stats.Loss[i])) {
				t.Fatalf("%s: epoch %d loss %v vs %v", act, i, m.Stats.Loss[i], f.Stats.Loss[i])
			}
		}
	}
}

func TestExactnessBinaryBlockMode(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 700, 600, 2, 1) // forces multiple BNL blocks
	spec.BlockPages = 1
	cfg := Config{Hidden: []int{6}, Act: Sigmoid, Epochs: 3, LearningRate: 0.1, Mode: Block}
	m, s, f := trainAll3(t, db, spec, cfg)
	if d := m.Net.MaxParamDiff(s.Net); d > 1e-9 {
		t.Fatalf("M vs S param diff %v (block mode)", d)
	}
	if d := s.Net.MaxParamDiff(f.Net); d > 1e-7 {
		t.Fatalf("S vs F param diff %v (block mode)", d)
	}
}

func TestExactnessMultiway(t *testing.T) {
	db := openDB(t)
	spec := synthMulti(t, db, 400, []int{20, 8}, 2, []int{3, 2})
	cfg := Config{Hidden: []int{7}, Act: Tanh, Epochs: 4, LearningRate: 0.05}
	m, s, f := trainAll3(t, db, spec, cfg)
	if d := m.Net.MaxParamDiff(s.Net); d > 1e-9 {
		t.Fatalf("M vs S param diff %v", d)
	}
	if d := s.Net.MaxParamDiff(f.Net); d > 1e-7 {
		t.Fatalf("S vs F param diff %v", d)
	}
}

// When every foreign key dangles the join is empty and an epoch has no mean
// loss: all three trainers must say so instead of returning a network with
// Loss = [NaN …].
func TestEmptyJoinIsAnError(t *testing.T) {
	db := openDB(t)
	rTbl, err := db.CreateTable(&storage.Schema{Name: "R", Keys: []string{"rid"}, Features: []string{"xr"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rTbl.Append(&storage.Tuple{Keys: []int64{0}, Features: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	if err := rTbl.Flush(); err != nil {
		t.Fatal(err)
	}
	sTbl, err := db.CreateTable(&storage.Schema{Name: "S", Keys: []string{"sid", "fk"}, Features: []string{"xs"}, HasTarget: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		tp := &storage.Tuple{Keys: []int64{int64(i), int64(100 + i)}, Features: []float64{float64(i)}, Target: 1}
		if err := sTbl.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := sTbl.Flush(); err != nil {
		t.Fatal(err)
	}
	spec := &join.Spec{S: sTbl, Rs: []*storage.Table{rTbl}}
	cfg := Config{Hidden: []int{3}, Epochs: 2}
	for name, s := range map[string]plan.Strategy{"M": plan.Materialized, "S": plan.Streaming, "F": plan.Factorized} {
		res, err := Train(db, spec, s, cfg)
		if err == nil {
			t.Errorf("%s: trained on an empty join without error, Loss = %v", name, res.Stats.Loss)
		} else if !strings.HasPrefix(err.Error(), "nn: ") {
			t.Errorf("%s: error %q is not an nn: error", name, err)
		}
	}
}

// TestLayer2SharingExact holds the exactness half of §VI-A2: under the
// Identity activation (the only additive one), a joined row's layer-2
// pre-activation splits over the relations as
// Σ W1·t_m + W1·(W_S·x_S) + (W1·b0 + b1), t_m each dimension part's
// layer-1 partial — what a layer-2 sharing trainer would cache per
// dimension tuple. The cost half, why no trainer does, is core's
// TestLayer2SharingCostsMore.
func TestLayer2SharingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		dims   []int // fact part, then the dimension parts
		hidden []int
	}{
		{[]int{2, 3}, []int{6, 5}},
		{[]int{3, 2, 4}, []int{4, 7}},
		{[]int{1, 5, 2, 3}, []int{8, 3, 2}},
	} {
		d := 0
		for _, w := range tc.dims {
			d += w
		}
		net, err := NewNetwork(append(append([]int{d}, tc.hidden...), 1), Identity, 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range net.B {
			for i := range b {
				b[i] = rng.NormFloat64()
			}
		}
		x := make([]float64, d)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		fs := net.NewForwardScratch()
		net.forward(fs, x)
		dense := fs.a[1]

		nh0, nh1 := net.Sizes[1], net.Sizes[2]
		shared := make([]float64, nh1)
		linalg.MatVec(shared, net.W[1], net.B[0])
		linalg.VecAdd(shared, shared, net.B[1]) // W1·b0 + b1
		t0, t3 := make([]float64, nh0), make([]float64, nh1)
		for off, j := 0, 0; j < len(tc.dims); off, j = off+tc.dims[j], j+1 {
			net.PartialPreAct(t0, off, x[off:off+tc.dims[j]]) // W_S·x_S, then each t_m
			linalg.MatVec(t3, net.W[1], t0)
			linalg.VecAdd(shared, shared, t3)
		}
		scale := 0.0
		for _, v := range dense {
			scale = math.Max(scale, math.Abs(v))
		}
		for i := range dense {
			if diff := math.Abs(shared[i] - dense[i]); diff > 1e-12*scale {
				t.Errorf("dims %v hidden %v: a¹[%d] shared %v, dense %v (diff %g)", tc.dims, tc.hidden, i, shared[i], dense[i], diff)
			}
		}
	}
}

// F-NN must save forward-pass multiplications when redundancy is present.
func TestFactorizedSavesOps(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 1000, 10, 3, 12)
	cfg := Config{Hidden: []int{16}, Act: ReLU, Epochs: 2, LearningRate: 0.05}
	s, err := Train(db, spec, plan.Streaming, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats.Ops.Mul >= s.Stats.Ops.Mul {
		t.Fatalf("F-NN mults %d not below S-NN %d", f.Stats.Ops.Mul, s.Stats.Ops.Mul)
	}
}

// §VI-A1 closed form: the dense layer-1 forward spends nh·d mults per tuple;
// the factorized one spends nh·dS per tuple plus nh·dR per dimension tuple.
// The input-layer gradient saves the same: nh·d per tuple dense, nh·dS per
// tuple plus one nh×dR outer product per dimension tuple at the flush.
func TestForwardSavingMatchesClosedForm(t *testing.T) {
	db := openDB(t)
	nS, nR, dS, dR, nh := 500, 20, 3, 6, 8
	spec := synthBinary(t, db, nS, nR, dS, dR)
	cfg := Config{Hidden: []int{nh}, Act: ReLU, Epochs: 1, LearningRate: 0.05}
	s, err := Train(db, spec, plan.Streaming, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * (int64(nS)*int64(nh*dR) - int64(nR)*int64(nh*dR))
	got := s.Stats.Ops.Mul - f.Stats.Ops.Mul
	if got != want {
		t.Fatalf("forward saving = %d mults, closed form = %d", got, want)
	}
}

func TestLossDecreases(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 600, 30, 4, 4)
	res, err := TrainF(db, spec, Config{Hidden: []int{12}, Act: Tanh, Epochs: 30, LearningRate: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	first, last := res.Stats.Loss[0], res.Stats.FinalLoss()
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestPredictLearnsSignal(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 1500, 20, 4, 2)
	res, err := TrainF(db, spec, Config{Hidden: []int{16}, Act: Tanh, Epochs: 120, LearningRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	// Compare model MSE against the trivial mean predictor.
	var sumY, sumY2, n float64
	var sse float64
	err = join.Stream(spec, func(_ int64, x []float64, y float64) error {
		p := res.Net.Predict(x)
		sse += (p - y) * (p - y)
		sumY += y
		sumY2 += y * y
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	varY := sumY2/n - (sumY/n)*(sumY/n)
	if sse/n > 0.9*varY {
		t.Fatalf("model MSE %v worse than 0.9·Var(y)=%v — did not learn", sse/n, 0.9*varY)
	}
}

func TestIOProfiles(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 400, 20, 2, 2)
	cfg := Config{Hidden: []int{4}, Act: Sigmoid, Epochs: 2, LearningRate: 0.1}
	m, err := Train(db, spec, plan.Materialized, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.IO.PageWrites == 0 {
		t.Fatal("M-NN should materialize pages")
	}
	f, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats.IO.PageWrites != 0 {
		t.Fatalf("F-NN wrote %d pages", f.Stats.IO.PageWrites)
	}
	// F reads fewer logical pages than M (M re-reads the wide T).
	if f.Stats.IO.LogicalReads >= m.Stats.IO.LogicalReads {
		t.Fatalf("F-NN logical reads %d not below M-NN %d", f.Stats.IO.LogicalReads, m.Stats.IO.LogicalReads)
	}
}

func TestConfigValidation(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 50, 5, 1, 1)
	if _, err := TrainF(db, spec, Config{Hidden: []int{0}}); err == nil {
		t.Fatal("hidden size 0 should fail")
	}
	if _, err := TrainF(db, spec, Config{LearningRate: -1}); err == nil {
		t.Fatal("negative learning rate should fail")
	}
	// Missing target.
	spec2, err := data.Generate(db, "nt", data.SynthConfig{NS: 20, NR: []int{4}, DS: 1, DR: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainF(db, spec2, Config{}); err == nil {
		t.Fatal("spec without target should fail")
	}
	if _, err := Train(db, spec2, plan.Materialized, Config{}); err == nil {
		t.Fatal("M without target should fail")
	}
	if _, err := Train(db, spec2, plan.Streaming, Config{}); err == nil {
		t.Fatal("S without target should fail")
	}
}

func TestNetworkBasics(t *testing.T) {
	if _, err := NewNetwork([]int{3}, Sigmoid, 1); err == nil {
		t.Fatal("too few sizes should fail")
	}
	if _, err := NewNetwork([]int{3, 2}, Sigmoid, 1); err == nil {
		t.Fatal("output size != 1 should fail")
	}
	if _, err := NewNetwork([]int{3, 0, 1}, Sigmoid, 1); err == nil {
		t.Fatal("zero layer size should fail")
	}
	n1, err := NewNetwork([]int{3, 4, 1}, Sigmoid, 7)
	if err != nil {
		t.Fatal(err)
	}
	n2, _ := NewNetwork([]int{3, 4, 1}, Sigmoid, 7)
	if d := n1.MaxParamDiff(n2); d != 0 {
		t.Fatalf("same-seed networks differ by %v", d)
	}
	n3, _ := NewNetwork([]int{3, 4, 1}, Sigmoid, 8)
	if d := n1.MaxParamDiff(n3); d == 0 {
		t.Fatal("different-seed networks identical")
	}
	c := n1.Clone()
	c.B[0][0] += 1
	if n1.B[0][0] == c.B[0][0] {
		t.Fatal("Clone aliases original")
	}
	if n1.InputDim() != 3 || n1.Layers() != 2 {
		t.Fatalf("dims: %d layers %d", n1.InputDim(), n1.Layers())
	}
}

func TestActivations(t *testing.T) {
	v := []float64{-2, 0, 3}
	out := make([]float64, 3)
	Sigmoid.Apply(out, v)
	if math.Abs(out[1]-0.5) > 1e-12 || out[0] >= 0.5 || out[2] <= 0.5 {
		t.Fatalf("sigmoid: %v", out)
	}
	ReLU.Apply(out, v)
	if out[0] != 0 || out[1] != 0 || out[2] != 3 {
		t.Fatalf("relu: %v", out)
	}
	Tanh.Apply(out, v)
	if math.Abs(out[2]-math.Tanh(3)) > 1e-12 {
		t.Fatalf("tanh: %v", out)
	}
	Identity.Apply(out, v)
	if out[0] != -2 {
		t.Fatalf("identity: %v", out)
	}
	for _, a := range []Activation{Sigmoid, Tanh, ReLU, Identity} {
		if a.String() == "" {
			t.Fatal("empty activation name")
		}
	}
}

// Numerical gradient check on tiny networks: backprop must match finite
// differences of Predict's loss — with a hidden layer, and without one,
// where the output layer is the input layer and stays linear.
func TestBackpropGradientCheck(t *testing.T) {
	for _, sizes := range [][]int{{3, 4, 1}, {3, 1}} {
		net, err := NewNetwork(sizes, Tanh, 5)
		if err != nil {
			t.Fatal(err)
		}
		checkGradient(t, net)
	}
	net, err := NewNetwork([]int{3, 1}, Sigmoid, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkGradient(t, net)
}

func checkGradient(t *testing.T, net *Network) {
	t.Helper()
	x := []float64{0.3, -0.7, 1.2}
	y := 0.4

	// The trainer's path with nothing factorized: the whole row is the
	// fact part, whose ΔᵀX the chunk takes and the merge adds in.
	a := newGradAcc(net, len(x))
	o := net.ForwardFactorized(&a.ws.ForwardScratch, x, nil)
	if p := net.Predict(x); o != p {
		t.Fatalf("sizes %v: training forward pass %v, Predict %v", net.Sizes, o, p)
	}
	a.backprop(o, y)
	linalg.OuterAccumRows(a.factG, x, a.deltas, 1)
	w := newWorkspace(net)
	var loss float64
	var n int
	a.mergeInto(w, &loss, &n)

	const eps = 1e-6
	lossAt := func() float64 {
		p := net.Predict(x)
		return 0.5 * (p - y) * (p - y)
	}
	for l := 0; l < net.Layers(); l++ {
		r, c := net.W[l].Dims()
		for i := 0; i < r; i++ {
			for j := 0; j < c; j++ {
				orig := net.W[l].At(i, j)
				net.W[l].Set(i, j, orig+eps)
				up := lossAt()
				net.W[l].Set(i, j, orig-eps)
				down := lossAt()
				net.W[l].Set(i, j, orig)
				numeric := (up - down) / (2 * eps)
				analytic := w.gW[l].At(i, j)
				if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
					t.Fatalf("sizes %v W[%d][%d,%d]: analytic %v vs numeric %v", net.Sizes, l, i, j, analytic, numeric)
				}
			}
		}
		for i := 0; i < r; i++ {
			orig := net.B[l][i]
			net.B[l][i] = orig + eps
			up := lossAt()
			net.B[l][i] = orig - eps
			down := lossAt()
			net.B[l][i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-w.gB[l][i]) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("sizes %v B[%d][%d]: analytic %v vs numeric %v", net.Sizes, l, i, w.gB[l][i], numeric)
			}
		}
	}
}

// A network with no hidden layer trains through a linear output on every
// access path: warm-started from Init, the first epoch's loss is the mean
// of ½(Init.Predict(x) − y)² over the join.
func TestNoHiddenLayerWarmStartLoss(t *testing.T) {
	db := openDB(t)
	spec := synthMulti(t, db, 300, []int{12, 5}, 2, []int{3, 2})
	init, err := NewNetwork([]int{spec.JoinedWidth(), 1}, Sigmoid, 3)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	n := 0
	err = join.Stream(spec, func(_ int64, x []float64, y float64) error {
		d := init.Predict(x) - y
		sum += 0.5 * d * d
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := sum / float64(n)
	cfg := Config{Init: init, Epochs: 1, LearningRate: 0.05}
	m, s, f := trainAll3(t, db, spec, cfg)
	for name, res := range map[string]*Result{"M": m, "S": s, "F": f} {
		if got := res.Stats.Loss[0]; math.Abs(got-want) > 1e-12*math.Max(1, math.Abs(want)) {
			t.Errorf("%s: first-epoch loss %v, want the Init network's %v", name, got, want)
		}
	}
}

func TestDeepNetworkExactness(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 200, 10, 2, 2)
	cfg := Config{Hidden: []int{6, 5, 4}, Act: Sigmoid, Epochs: 3, LearningRate: 0.1}
	s, err := Train(db, spec, plan.Streaming, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Net.MaxParamDiff(f.Net); d > 1e-7 {
		t.Fatalf("deep S vs F param diff %v", d)
	}
}

func TestStatsFinalLoss(t *testing.T) {
	var s Stats
	if !math.IsInf(s.FinalLoss(), 1) {
		t.Fatal("empty FinalLoss should be +Inf")
	}
}

// SGD via per-epoch R-key permutation (§VI): S-NN and F-NN with the same
// shuffle seed must follow identical trajectories; different seeds (or no
// shuffle) must differ when batches change per epoch.
func TestShuffledSGDExactSvsF(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 800, 700, 2, 1) // multiple BNL blocks
	spec.BlockPages = 1
	cfg := Config{Hidden: []int{5}, Act: Sigmoid, Epochs: 3, LearningRate: 0.1,
		Mode: Block, ShuffleSeed: 42}
	s, err := Train(db, spec, plan.Streaming, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Net.MaxParamDiff(f.Net); d > 1e-7 {
		t.Fatalf("S vs F diverged under shuffled SGD: %v", d)
	}
	// A different seed changes the trajectory.
	cfg2 := cfg
	cfg2.ShuffleSeed = 43
	f2, err := TrainF(db, spec, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Net.MaxParamDiff(f2.Net); d == 0 {
		t.Fatal("different shuffle seeds produced identical networks")
	}
	// No shuffle also differs.
	cfg3 := cfg
	cfg3.ShuffleSeed = 0
	f3, err := TrainF(db, spec, cfg3)
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Net.MaxParamDiff(f3.Net); d == 0 {
		t.Fatal("shuffled and unshuffled training produced identical networks")
	}
}

func TestShuffleRejectedByMNN(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 50, 5, 1, 1)
	cfg := Config{Hidden: []int{3}, Epochs: 1, ShuffleSeed: 7}
	if _, err := Train(db, spec, plan.Materialized, cfg); err == nil {
		t.Fatal("M-NN must reject ShuffleSeed")
	}
}

// Shuffled training still visits every joined tuple exactly once per epoch
// (same loss denominator, same data), so the loss trace stays finite and
// the model still learns.
func TestShuffledSGDStillLearns(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 600, 550, 2, 1)
	spec.BlockPages = 1
	cfg := Config{Hidden: []int{8}, Act: Tanh, Epochs: 20, LearningRate: 0.2,
		Mode: Block, ShuffleSeed: 9}
	res, err := TrainF(db, spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.FinalLoss() >= res.Stats.Loss[0] {
		t.Fatalf("shuffled SGD loss did not decrease: %v -> %v", res.Stats.Loss[0], res.Stats.FinalLoss())
	}
}
