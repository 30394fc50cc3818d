package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
	"math/rand"
	"sort"

	"factorml"
)

// dimSpec is one dimension table of a workload's schema. Sub-dimension
// tables come before the tables that reference them.
type dimSpec struct {
	name  string
	rows  int
	width int
	subs  []int // indexes into shape.dims
}

// shape is everything that distinguishes one workload from another. Every
// workload runs every phase; only these numbers differ. Row and request
// counts are the calibrated values for `-scale 1 -seconds 30` on the
// 2-core reference box (see README.md, "Calibration").
type shape struct {
	name string
	why  string

	dims      []dimSpec
	direct    []int // the fact table's dimension tables, in foreign-key order
	factWidth int
	logRows   int // fact rows the trainers see
	baseRows  int // prefix of the log the live database starts from; the replay continues from there
	// warmup trains the served base models on the live base alone, the
	// ICD warm-up; otherwise set-up trains them on the whole log.
	warmup bool
	// recommender draws features uniformly in [0,1] and sets the target
	// to an affinity·genre match, after examples/recommender; otherwise
	// features come from Gaussian clusters and the target is a noisy
	// tanh of a fixed direction over the joined row.
	recommender bool

	gmm factorml.GMMConfig
	nn  factorml.NNConfig

	// Predict traffic: foreign keys are Zipf(zipfS) over each direct
	// table's keys, uniform when zipfS is 0. Each of the two clients sends
	// smallReqs small JSON requests and bulkReqs 512-row binary requests.
	zipfS        float64
	smallRows    int
	smallReqs    int
	bulkReqs     int
	cacheEntries int // engine partial-cache capacity, 0 = the engine default

	// Stream replay: slices × (bulkPerSlice batches of bulkRows, then
	// smallPerSlice batches of smallRows, then one refresh). dimFrac of
	// every batch's rows are dimension updates that repoint sub-keys.
	slices          int
	bulkPerSlice    int
	bulkBatchRows   int
	smallPerSlice   int
	smallBatchRows  int
	dimFrac         float64
	rebaselineEvery int
	snapshotEvery   int
	// concurrent runs the predict client beside the writer for the whole
	// replay instead of in a phase of its own.
	concurrent bool
	// driftTol gates the incremental-vs-retrain gap (0 = report only).
	driftTol float64
}

const (
	bulkPredictRows = 512
	// recoveries is how many crash images are copied and booted; recover_s
	// is the median.
	recoveries = 3
)

func gmmConfig(iters int) factorml.GMMConfig {
	return factorml.GMMConfig{K: 5, MaxIter: iters, Tol: 1e-300, NumWorkers: 1}
}

func nnConfig(epochs int) factorml.NNConfig {
	return factorml.NNConfig{Hidden: []int{50}, Epochs: epochs, NumWorkers: 1}
}

// shapes lists the workloads in BENCHMARK.json order.
var shapes = []shape{
	{
		name: "star_wide",
		why:  "high redundancy, wide dimension: kernels and partial reuse do the work; cache-hit serving, incremental refresh, snapshot-bound recovery",
		dims: []dimSpec{{name: "r1", rows: 3100, width: 11}}, direct: []int{0},
		factWidth: 5, logRows: 310000, baseRows: 16000,
		gmm: gmmConfig(3), nn: nnConfig(2),
		zipfS: 1.1, smallRows: 16, smallReqs: 2000, bulkReqs: 300,
		slices: 20, bulkPerSlice: 2, bulkBatchRows: 500, smallPerSlice: 100, smallBatchRows: 10,
		snapshotEvery: 64,
	},
	{
		name: "snowflake_narrow",
		why:  "low redundancy, narrow depth-2 dimensions: scan, probe and bookkeeping dominate; cache-miss serving, rebaseline refresh, replay-bound recovery",
		dims: []dimSpec{
			{name: "r1_1", rows: 2250, width: 3}, {name: "r1", rows: 9000, width: 3, subs: []int{0}},
			{name: "r2_1", rows: 750, width: 3}, {name: "r2", rows: 3000, width: 3, subs: []int{2}},
			{name: "r3_1", rows: 375, width: 2}, {name: "r3", rows: 1500, width: 2, subs: []int{4}},
		},
		direct:    []int{1, 3, 5},
		factWidth: 12, logRows: 42000, baseRows: 1000,
		gmm: gmmConfig(3), nn: nnConfig(8),
		zipfS: 0, smallRows: 1, smallReqs: 1000, bulkReqs: 100, cacheEntries: 256,
		slices: 20, bulkPerSlice: 2, bulkBatchRows: 50, smallPerSlice: 100, smallBatchRows: 2,
		dimFrac: 0.1, snapshotEvery: 0,
	},
	{
		name:      "icd_replay",
		why:       "ratings log replayed ICD-style (10% warm-up, refresh per slice, drift check against a retrain) with a predict client beside the writer: reads and writes contend",
		dims:      []dimSpec{{name: "users", rows: 6000, width: 8}, {name: "movies", rows: 2500, width: 6}},
		direct:    []int{0, 1},
		factWidth: 1, logRows: 120000, baseRows: 12000, warmup: true, recommender: true,
		gmm: gmmConfig(4), nn: nnConfig(4),
		zipfS: 0.8, smallRows: 8,
		slices: 20, bulkPerSlice: 2, bulkBatchRows: 400, smallPerSlice: 100, smallBatchRows: 5,
		rebaselineEvery: 10, snapshotEvery: 128, concurrent: true, driftTol: 2e-1,
	},
}

func shapeByName(name string) (*shape, error) {
	for i := range shapes {
		if shapes[i].name == name {
			sh := shapes[i]
			return &sh, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks the data by scale and the repetition counts by reps
// (seconds/30), keeping every count at least large enough to run.
func (sh shape) scaled(scale, reps float64) shape {
	mul := func(n int, f float64, min int) int {
		v := int(math.Round(float64(n) * f))
		if v < min {
			v = min
		}
		return v
	}
	sh.dims = append([]dimSpec(nil), sh.dims...)
	for i := range sh.dims {
		sh.dims[i].rows = mul(sh.dims[i].rows, scale, 8)
	}
	sh.logRows = mul(sh.logRows, scale, 1200)
	sh.baseRows = mul(sh.baseRows, scale, 200)
	sh.smallReqs = mul(sh.smallReqs, scale*reps, 20)
	sh.bulkReqs = mul(sh.bulkReqs, scale*reps, 4)
	sh.slices = mul(sh.slices, reps, 2)
	sh.bulkBatchRows = mul(sh.bulkBatchRows, scale, 20)
	sh.smallPerSlice = mul(sh.smallPerSlice, scale, 4)
	return sh
}

// replayRows is how many log rows the stream phase ingests.
func (sh *shape) replayRows() int {
	return sh.slices * (sh.bulkPerSlice*sh.bulkBatchRows + sh.smallPerSlice*sh.smallBatchRows)
}

// rows is how many fact rows the workload generates: what the trainers
// see, or the live base plus everything the replay appends to it.
func (sh *shape) rows() int {
	if n := sh.baseRows + sh.replayRows(); n > sh.logRows {
		return n
	}
	return sh.logRows
}

// table is one generated dimension table, kept in memory so that request
// rows can be materialised for the prediction self-check and dimension
// updates can be mirrored.
type table struct {
	spec  dimSpec
	feats []float64 // rows × width
	fks   []int64   // rows × len(subs)
}

func (t *table) row(i int64) []float64 {
	return t.feats[int(i)*t.spec.width : (int(i)+1)*t.spec.width]
}

func (t *table) subKeys(i int64) []int64 {
	n := len(t.spec.subs)
	return t.fks[int(i)*n : (int(i)+1)*n]
}

// dataset is a workload's generated input: the dimension tables and the
// sh.rows() rows of the fact log. Row i of the log has sid i.
type dataset struct {
	sh     *shape
	tables []*table
	// samplers[i] draws table i's features; dimension updates reuse it.
	samplers []*clusterSampler
	nFK      int
	fks      []int64   // rows × nFK
	x        []float64 // rows × factWidth
	y        []float64
	width    int // joined feature width
}

func (d *dataset) factFKs(i int) []int64 { return d.fks[i*d.nFK : (i+1)*d.nFK] }
func (d *dataset) factX(i int) []float64 {
	return d.x[i*d.sh.factWidth : (i+1)*d.sh.factWidth]
}

// clusterSampler draws feature vectors from well-separated Gaussian
// clusters plus noise, like internal/data's synthetic generator.
type clusterSampler struct {
	centers [][]float64
}

func newClusterSampler(rng *rand.Rand, clusters, dim int) *clusterSampler {
	cs := &clusterSampler{}
	for c := 0; c < clusters; c++ {
		center := make([]float64, dim)
		for i := range center {
			center[i] = 4 * rng.NormFloat64()
		}
		cs.centers = append(cs.centers, center)
	}
	return cs
}

func (cs *clusterSampler) sample(rng *rand.Rand, dst []float64) {
	center := cs.centers[rng.Intn(len(cs.centers))]
	for i := range dst {
		dst[i] = center[i] + rng.NormFloat64() + 0.1*rng.NormFloat64()
	}
}

// generate builds the workload's tables and fact log from the seed alone:
// equal (shape, seed) give byte-identical inputs (see digest).
func generate(sh *shape, seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &dataset{sh: sh, nFK: len(sh.direct), width: sh.factWidth}
	for ti, spec := range sh.dims {
		t := &table{spec: spec,
			feats: make([]float64, spec.rows*spec.width),
			fks:   make([]int64, spec.rows*len(spec.subs))}
		d.tables = append(d.tables, t)
		d.samplers = append(d.samplers, newClusterSampler(rng, 5, spec.width))
		for i := int64(0); i < int64(spec.rows); i++ {
			d.drawDimRow(rng, ti, t.row(i), t.subKeys(i))
		}
	}
	var walk func(ti int)
	walk = func(ti int) {
		d.width += sh.dims[ti].width
		for _, s := range sh.dims[ti].subs {
			walk(s)
		}
	}
	for _, ti := range sh.direct {
		walk(ti)
	}

	n := sh.rows()
	d.fks = make([]int64, n*d.nFK)
	d.x = make([]float64, n*sh.factWidth)
	d.y = make([]float64, n)
	factSampler := newClusterSampler(rng, 5, sh.factWidth)
	dir := make([]float64, d.width)
	for i := range dir {
		dir[i] = rng.NormFloat64()
	}
	joined := make([]float64, d.width)
	for i := 0; i < n; i++ {
		fks := d.factFKs(i)
		for j, ti := range sh.direct {
			fks[j] = int64(rng.Intn(sh.dims[ti].rows))
		}
		x := d.factX(i)
		if sh.recommender {
			for k := range x {
				x[k] = float64(rng.Intn(24))
			}
			u, m := d.tables[sh.direct[0]].row(fks[0]), d.tables[sh.direct[1]].row(fks[1])
			match := u[2]*m[2] + u[3]*m[3] + u[4]*m[4]
			d.y[i] = 1 + 4*match/3 + 0.3*rng.NormFloat64()
			continue
		}
		factSampler.sample(rng, x)
		d.materialise(joined, x, fks)
		var dot float64
		for k, v := range joined {
			dot += dir[k] * v
		}
		d.y[i] = math.Tanh(dot/math.Sqrt(float64(d.width))) + 0.1*rng.NormFloat64()
	}
	return d
}

// drawDimRow draws one tuple of table ti: its features and, when the
// table references sub-dimensions, its sub-keys. The stream phase reuses
// it for dimension updates.
func (d *dataset) drawDimRow(rng *rand.Rand, ti int, feats []float64, subKeys []int64) {
	if d.sh.recommender {
		for k := range feats {
			feats[k] = rng.Float64()
		}
		feats[0] = 18 + 50*rng.Float64()
	} else {
		d.samplers[ti].sample(rng, feats)
	}
	for k, s := range d.sh.dims[ti].subs {
		subKeys[k] = int64(rng.Intn(d.sh.dims[s].rows))
	}
}

// materialise writes the joined feature vector of a fact row into dst:
// the fact features, then every dimension tuple on the row's path in
// depth-first preorder — the layout join.DimPlan gives every trainer and
// the serving engine.
func (d *dataset) materialise(dst, x []float64, fks []int64) {
	off := copy(dst, x)
	var walk func(ti int, key int64)
	walk = func(ti int, key int64) {
		t := d.tables[ti]
		off += copy(dst[off:], t.row(key))
		for k, s := range t.spec.subs {
			walk(s, t.subKeys(key)[k])
		}
	}
	for j, ti := range d.sh.direct {
		walk(ti, fks[j])
	}
}

// digest is a running SHA-256 over generated inputs; runs print its first
// 16 hex digits to show they measured the same input.
type digest struct{ hash.Hash }

func newDigest() digest { return digest{sha256.New()} }

func (d digest) hex() string { return hex.EncodeToString(d.Sum(nil))[:16] }

// digest hashes the generated tables and log.
func (d *dataset) digest() string {
	h := newDigest()
	for _, t := range d.tables {
		hashFloats(h, t.feats)
		hashInts(h, t.fks)
	}
	hashInts(h, d.fks)
	hashFloats(h, d.x)
	hashFloats(h, d.y)
	return h.hex()
}

func hashFloats(h io.Writer, v []float64) {
	var b [8]byte
	for _, f := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
}

func hashInts(h io.Writer, v []int64) {
	var b [8]byte
	for _, k := range v {
		binary.LittleEndian.PutUint64(b[:], uint64(k))
		h.Write(b[:])
	}
}

// keyGen draws foreign keys in [0, n): Zipf(s) by inverse CDF (rank r has
// weight 1/(r+1)^s; math/rand's Zipf needs s > 1, the ICD mix uses 0.8),
// or uniform when s is 0. Rank equals key, so the hot keys are the low
// ones.
type keyGen struct {
	n   int
	cdf []float64 // nil = uniform
	rng *rand.Rand
}

func newKeyGen(rng *rand.Rand, n int, s float64) *keyGen {
	g := &keyGen{n: n, rng: rng}
	if s > 0 {
		g.cdf = make([]float64, n)
		var sum float64
		for r := 0; r < n; r++ {
			sum += math.Pow(float64(r+1), -s)
			g.cdf[r] = sum
		}
		for r := range g.cdf {
			g.cdf[r] /= sum
		}
	}
	return g
}

func (g *keyGen) next() int64 {
	if g.cdf == nil {
		return int64(g.rng.Intn(g.n))
	}
	k := sort.SearchFloat64s(g.cdf, g.rng.Float64())
	if k >= g.n {
		k = g.n - 1
	}
	return int64(k)
}
