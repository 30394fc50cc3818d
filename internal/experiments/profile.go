package experiments

// Profile fixes the workload sizes of a full experiment run.
type Profile struct {
	Name string

	NR  int   // dimension-table cardinality for the synthetic sweeps
	RRs []int // tuple ratios swept in Fig 3a/4a/5a/6a
	DRs []int // dimension widths swept in Fig 3b/4b/5b/6b
	Ks  []int // GMM component counts swept in Fig 3c/4c
	NHs []int // NN hidden widths swept in Fig 5c/6c

	NSFixed  int // fact cardinality for the vary-dR/K/nh sweeps
	NR2      int // second dimension table cardinality (multi-way sweeps)
	DR2      int // second dimension table width (multi-way sweeps)
	GMMIters int // EM iterations; the harness sets Tol to 1e-300 so all run
	NNEpochs int

	RealScale float64 // scale applied to the Table VI/VII dataset shapes
}

// Quick is a CI-sized profile: every figure regenerates in seconds while
// preserving the tuple ratios that drive the relative costs.
var Quick = Profile{
	Name:     "quick",
	NR:       100,
	RRs:      []int{50, 100, 200, 500},
	DRs:      []int{2, 5, 10, 15},
	Ks:       []int{2, 3, 5},
	NHs:      []int{10, 25, 50},
	NSFixed:  10000,
	NR2:      40,
	DR2:      4,
	GMMIters: 2,
	NNEpochs: 2,

	RealScale: 0.002,
}

// PaperProfile matches the parameters of Tables II/III (nR = 1000,
// nS up to 5·10⁶, 10 NN epochs). Running it takes hours.
var PaperProfile = Profile{
	Name:     "paper",
	NR:       1000,
	RRs:      []int{100, 200, 500, 1000, 2000, 5000},
	DRs:      []int{5, 10, 15, 20, 30},
	Ks:       []int{2, 3, 5, 8, 10},
	NHs:      []int{10, 25, 50, 100},
	NSFixed:  1000000,
	NR2:      400,
	DR2:      21,
	GMMIters: 5,
	NNEpochs: 10,

	RealScale: 1,
}
