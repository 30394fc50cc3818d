package data

import (
	"fmt"
	"math"
	"math/rand"

	"factorml/internal/join"
	"factorml/internal/storage"
)

// SynthConfig describes a synthetic star schema S ⋈ R1 ⋈ … ⋈ Rq — or,
// with Depth > 1, a snowflake in which every dimension table recursively
// references DimsPerLevel sub-dimension tables down to the given depth.
type SynthConfig struct {
	NS int   // fact tuples
	NR []int // dimension tuples per top-level dimension table
	DS int   // fact features
	DR []int // dimension features per top-level dimension table

	// Depth is the dimension-hierarchy depth: 1 (the default) is the
	// classic one-hop star; at Depth d every dimension table above the
	// leaf level references DimsPerLevel sub-dimension tables. Each
	// sub-dimension inherits its parent's feature width and has
	// max(2, parent cardinality / 4) tuples, so deeper levels are shared
	// by ever more parent tuples.
	Depth int
	// DimsPerLevel is how many sub-dimension tables each non-leaf
	// dimension table references when Depth > 1 (default 1).
	DimsPerLevel int

	Clusters int     // Gaussian clusters features are sampled from (default 5)
	Noise    float64 // additive N(0, Noise²) noise (default 0.1)
	Seed     int64   // RNG seed (default 1)

	WithTarget bool // generate a regression target on S (for NN)
}

func (c SynthConfig) withDefaults() SynthConfig {
	if c.Clusters == 0 {
		c.Clusters = 5
	}
	if c.Noise == 0 {
		c.Noise = 0.1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Depth == 0 {
		c.Depth = 1
	}
	if c.DimsPerLevel == 0 {
		c.DimsPerLevel = 1
	}
	return c
}

func (c SynthConfig) validate() error {
	if c.NS <= 0 || c.DS < 0 {
		return fmt.Errorf("data: invalid fact shape nS=%d dS=%d", c.NS, c.DS)
	}
	if len(c.NR) == 0 || len(c.NR) != len(c.DR) {
		return fmt.Errorf("data: NR/DR length mismatch: %d vs %d", len(c.NR), len(c.DR))
	}
	for i := range c.NR {
		if c.NR[i] <= 0 || c.DR[i] < 0 {
			return fmt.Errorf("data: invalid dimension shape nR%d=%d dR%d=%d", i+1, c.NR[i], i+1, c.DR[i])
		}
	}
	if c.Depth < 1 {
		return fmt.Errorf("data: invalid hierarchy depth %d, want >= 1", c.Depth)
	}
	if c.DimsPerLevel < 1 {
		return fmt.Errorf("data: invalid dims-per-level %d, want >= 1", c.DimsPerLevel)
	}
	return nil
}

// clusterSampler draws feature vectors from a mixture of well-separated
// Gaussians plus noise.
type clusterSampler struct {
	centers [][]float64
	rng     *rand.Rand
	noise   float64
}

func newClusterSampler(rng *rand.Rand, clusters, dim int, noise float64) *clusterSampler {
	cs := &clusterSampler{rng: rng, noise: noise}
	for c := 0; c < clusters; c++ {
		center := make([]float64, dim)
		for i := range center {
			center[i] = 4 * rng.NormFloat64() // spread centers out
		}
		cs.centers = append(cs.centers, center)
	}
	return cs
}

func (cs *clusterSampler) sample(dst []float64) {
	center := cs.centers[cs.rng.Intn(len(cs.centers))]
	for i := range dst {
		v := cs.rng.NormFloat64()
		if i < len(center) {
			v += center[i]
		}
		dst[i] = v + cs.noise*cs.rng.NormFloat64()
	}
}

// Generate creates the fact and dimension tables in db and returns a join
// spec over them. Foreign keys are assigned uniformly at random, so the
// expected group size of dimension tuple matches is rr = nS/nR — the
// redundancy knob of the paper's experiments. With cfg.Depth > 1 each
// dimension table recursively references cfg.DimsPerLevel sub-dimension
// tables (named <parent>_<i>), the references recorded in the catalog, and
// the returned spec covers the flattened snowflake.
func Generate(db *storage.Database, name string, cfg SynthConfig) (*join.Spec, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	q := len(cfg.NR)

	// makeDim creates the dimension table tblName with n tuples of d
	// features — building its sub-dimension subtree first (level counts
	// from 1), so foreign keys are drawn against known cardinalities.
	var makeDim func(tblName, featPrefix string, n, d, level int) (*storage.Table, error)
	makeDim = func(tblName, featPrefix string, n, d, level int) (*storage.Table, error) {
		var subNames []string
		var subNs []int
		if level < cfg.Depth {
			subN := n / 4
			if subN < 2 {
				subN = 2
			}
			for c := 0; c < cfg.DimsPerLevel; c++ {
				subName := fmt.Sprintf("%s_%d", tblName, c+1)
				if _, err := makeDim(subName, fmt.Sprintf("%s_%d", featPrefix, c+1), subN, d, level+1); err != nil {
					return nil, err
				}
				subNames = append(subNames, subName)
				subNs = append(subNs, subN)
			}
		}
		schema := &storage.Schema{Name: tblName, Keys: []string{"rid"}, Refs: subNames}
		for c := range subNames {
			schema.Keys = append(schema.Keys, fmt.Sprintf("fk%d", c+1))
		}
		for i := 0; i < d; i++ {
			schema.Features = append(schema.Features, fmt.Sprintf("%s_%d", featPrefix, i))
		}
		tbl, err := db.CreateTable(schema)
		if err != nil {
			return nil, err
		}
		sampler := newClusterSampler(rng, cfg.Clusters, d, cfg.Noise)
		feats := make([]float64, d)
		keys := make([]int64, 1+len(subNames))
		for i := 0; i < n; i++ {
			sampler.sample(feats)
			keys[0] = int64(i)
			for c, sn := range subNs {
				keys[1+c] = int64(rng.Intn(sn))
			}
			if err := tbl.Append(&storage.Tuple{Keys: keys, Features: feats}); err != nil {
				return nil, err
			}
		}
		if err := tbl.Flush(); err != nil {
			return nil, err
		}
		return tbl, nil
	}

	var direct []*storage.Table
	for j := 0; j < q; j++ {
		tbl, err := makeDim(fmt.Sprintf("%s_R%d", name, j+1), fmt.Sprintf("xr%d", j+1), cfg.NR[j], cfg.DR[j], 1)
		if err != nil {
			return nil, err
		}
		direct = append(direct, tbl)
	}

	sSchema := &storage.Schema{Name: fmt.Sprintf("%s_S", name), Keys: []string{"sid"}, HasTarget: cfg.WithTarget}
	for j := 0; j < q; j++ {
		sSchema.Keys = append(sSchema.Keys, fmt.Sprintf("fk%d", j+1))
		sSchema.Refs = append(sSchema.Refs, direct[j].Schema().Name)
	}
	for i := 0; i < cfg.DS; i++ {
		sSchema.Features = append(sSchema.Features, fmt.Sprintf("xs%d", i))
	}
	sTbl, err := db.CreateTable(sSchema)
	if err != nil {
		return nil, err
	}
	sampler := newClusterSampler(rng, cfg.Clusters, cfg.DS, cfg.Noise)
	feats := make([]float64, cfg.DS)
	keys := make([]int64, 1+q)
	// A fixed random direction defines the regression target, making the NN
	// experiments learnable rather than pure noise.
	wTarget := make([]float64, cfg.DS)
	for i := range wTarget {
		wTarget[i] = rng.NormFloat64()
	}
	for i := 0; i < cfg.NS; i++ {
		sampler.sample(feats)
		keys[0] = int64(i)
		for j := 0; j < q; j++ {
			keys[1+j] = int64(rng.Intn(cfg.NR[j]))
		}
		var y float64
		if cfg.WithTarget {
			for d, v := range feats {
				y += wTarget[d] * v
			}
			y = math.Tanh(y/math.Sqrt(float64(max(cfg.DS, 1)))) + cfg.Noise*rng.NormFloat64()
		}
		if err := sTbl.Append(&storage.Tuple{Keys: keys, Features: feats, Target: y}); err != nil {
			return nil, err
		}
	}
	if err := sTbl.Flush(); err != nil {
		return nil, err
	}
	return join.NewSnowflakeSpec(sTbl, direct, db.Table)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
