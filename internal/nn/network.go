package nn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"factorml/internal/core"
	"factorml/internal/linalg"
	"factorml/internal/plan"
	"factorml/internal/storage"
)

// Network is a fully connected feed-forward network with a scalar linear
// output and a shared hidden activation. Sizes = [d, nh1, …, nhL, 1].
type Network struct {
	Sizes []int
	W     []*linalg.Dense // W[l] has shape Sizes[l+1] × Sizes[l]
	B     [][]float64     // B[l] has length Sizes[l+1]
	Act   Activation
}

// NewNetwork builds a network with deterministic Xavier-style random
// weights from the seed. Identical seeds yield identical networks, which is
// what lets the M/S/F trainers start from the same parameters.
func NewNetwork(sizes []int, act Activation, seed int64) (*Network, error) {
	if len(sizes) < 2 {
		return nil, errors.New("nn: network needs at least input and output sizes")
	}
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("nn: invalid layer size %d", s)
		}
	}
	if sizes[len(sizes)-1] != 1 {
		return nil, fmt.Errorf("nn: output size %d, want 1 (scalar regression)", sizes[len(sizes)-1])
	}
	rng := rand.New(rand.NewSource(seed))
	net := &Network{Sizes: append([]int{}, sizes...), Act: act}
	for l := 0; l+1 < len(sizes); l++ {
		w := linalg.NewDense(sizes[l+1], sizes[l])
		scale := 1 / math.Sqrt(float64(sizes[l]))
		for i := range w.Data() {
			w.Data()[i] = rng.NormFloat64() * scale
		}
		net.W = append(net.W, w)
		net.B = append(net.B, make([]float64, sizes[l+1]))
	}
	return net, nil
}

// Layers returns the number of weight layers.
func (n *Network) Layers() int { return len(n.W) }

// InputDim returns the expected feature dimensionality.
func (n *Network) InputDim() int { return n.Sizes[0] }

// Predict runs a forward pass for one input and returns the scalar output.
func (n *Network) Predict(x []float64) float64 {
	if len(x) != n.Sizes[0] {
		panic(fmt.Sprintf("nn: input dim %d, want %d", len(x), n.Sizes[0]))
	}
	// No backward pass follows, so each hidden layer is activated in place.
	a := n.layerBuffers()
	return n.forward(&ForwardScratch{a: a, h: a}, x)
}

// Clone returns a deep copy.
func (n *Network) Clone() *Network {
	out := &Network{Sizes: append([]int{}, n.Sizes...), Act: n.Act}
	for l := range n.W {
		out.W = append(out.W, n.W[l].Clone())
		out.B = append(out.B, append([]float64{}, n.B[l]...))
	}
	return out
}

// MaxParamDiff returns the largest absolute parameter difference between
// two networks (∞ on shape mismatch).
func (n *Network) MaxParamDiff(o *Network) float64 {
	if n.Layers() != o.Layers() {
		return math.Inf(1)
	}
	max := 0.0
	for l := range n.W {
		r1, c1 := n.W[l].Dims()
		r2, c2 := o.W[l].Dims()
		if r1 != r2 || c1 != c2 {
			return math.Inf(1)
		}
		if d := n.W[l].MaxAbsDiff(o.W[l]); d > max {
			max = d
		}
		if d := linalg.MaxAbsDiffVec(n.B[l], o.B[l]); d > max {
			max = d
		}
	}
	return max
}

// BatchMode selects how often gradient steps are applied.
type BatchMode int

const (
	// Epoch applies one gradient step per full pass over the data
	// (full-batch gradient descent).
	Epoch BatchMode = iota
	// Block applies one gradient step per R1 block of the join — the
	// mini-batch regime whose batches coincide across M/S/F.
	Block
)

// Config controls training — the network, the update cadence and the
// worker pool, nothing about the join: its block size (and with it the
// Block-mode mini-batch) is a field of the join.Spec, where the join,
// every access path and the planner all read it.
type Config struct {
	Hidden []int      // hidden layer sizes (default [50])
	Act    Activation // hidden activation (default Sigmoid)

	Epochs       int     // training epochs (default 10, matching the paper)
	LearningRate float64 // gradient step size (default 0.05)
	Mode         BatchMode
	Seed         int64 // weight init seed (default 1)

	// Init, when non-nil, warm-starts training from this network instead
	// of a fresh Xavier initialization: the trainer clones it and continues
	// SGD from there (Hidden, Act and Seed are then unused — the cloned
	// network fixes the architecture). Init.InputDim must match the joined
	// feature width. This is what the streaming subsystem's refresh path
	// uses to continue a served model on base+delta data.
	Init *Network

	// NumWorkers sets the size of the worker pool that parallelizes the
	// per-example forward/backward computation: 0 uses every CPU
	// (runtime.NumCPU()), 1 runs sequentially, n > 1 uses n workers. (The
	// factorml facade first resolves 0 to its database-wide
	// Options.NumWorkers default, which itself defaults to every CPU.) Chunk
	// geometry and gradient-merge order are independent of this knob (see
	// internal/parallel), so the trained network is bit-for-bit identical
	// for every value.
	NumWorkers int

	// ShuffleSeed, when non-zero, permutes R1's keys before every epoch —
	// the paper's SGD scheme (§VI). Combined with Mode == Block this gives
	// stochastic mini-batch training whose batch composition varies per
	// epoch. Supported by the access paths that re-join every epoch
	// (streaming and factorized, which produce identical trajectories for
	// the same seed); a materialized T is fixed on disk, so that path has
	// nothing to permute and the seed is refused.
	ShuffleSeed int64
}

func (c Config) withDefaults() Config {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{50}
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

func (c Config) validate() error {
	for _, h := range c.Hidden {
		if h < 1 {
			return fmt.Errorf("nn: invalid hidden size %d", h)
		}
	}
	if c.Epochs < 0 || c.LearningRate <= 0 {
		return errors.New("nn: invalid Epochs/LearningRate")
	}
	return nil
}

func (c Config) sizes(d int) []int {
	sizes := append([]int{d}, c.Hidden...)
	return append(sizes, 1)
}

// initNetwork returns the network training starts from: a clone of the
// warm-start network when cfg.Init is set (so the caller's copy is never
// mutated by training), or a fresh seeded initialization otherwise.
func initNetwork(cfg Config, d int) (*Network, error) {
	if cfg.Init != nil {
		if got := cfg.Init.InputDim(); got != d {
			return nil, fmt.Errorf("nn: warm-start network has input dim %d, dataset joins to %d", got, d)
		}
		return cfg.Init.Clone(), nil
	}
	return NewNetwork(cfg.sizes(d), cfg.Act, cfg.Seed)
}

// Stats reports how training went.
type Stats struct {
	Epochs    int
	Loss      []float64 // mean squared-error loss per epoch: 1/(2N) Σ (o−y)²
	Ops       core.Ops  // training-math flops: core's per-event units × the events this run saw
	IO        storage.IOStats
	TrainTime time.Duration

	// Plan, when training was strategy-planned (factorml.Auto), records
	// the planner's decision: the chosen strategy plus the per-strategy
	// cost estimates it ranked. Nil when the caller picked the strategy.
	Plan *plan.Plan
}

// Result bundles the trained network with its statistics.
type Result struct {
	Net   *Network
	Stats Stats
}

// endEpoch records the mean loss of an epoch that folded seen examples.
// An epoch with none — an empty fact table, or every foreign key dangling —
// has no mean, so it is an error rather than a NaN in Loss.
func (s *Stats) endEpoch(lossSum float64, seen int) error {
	if seen == 0 {
		return fmt.Errorf("nn: 0 training examples (the join is empty)")
	}
	s.Loss = append(s.Loss, lossSum/float64(seen))
	s.Epochs = len(s.Loss)
	return nil
}

// FinalLoss returns the last epoch's loss (+Inf if none recorded).
func (s *Stats) FinalLoss() float64 {
	if len(s.Loss) == 0 {
		return math.Inf(1)
	}
	return s.Loss[len(s.Loss)-1]
}
