package experiments

import (
	"fmt"

	"factorml/internal/data"
)

// Paper defaults shared by the synthetic sweeps (Tables II/III): dS = 5,
// dR = 15 where dR is not swept, K = 5 clusters, nh = 50 hidden units.
const (
	sweepDS = 5
	sweepDR = 15
	sweepK  = 5
	sweepNH = 50
)

// family is the model an experiment trains.
type family int

const (
	gmmFamily family = iota // Gaussian mixture; a point's size is K
	nnFamily                // neural network; a point's size is nh
)

// point is one row of an experiment: the workload it generates and the
// size of the model trained over it.
type point struct {
	series string
	x      float64          // the swept value (0 for a table row)
	size   int              // K or nh; 0 takes the paper default
	synth  data.SynthConfig // the synthetic schema, when shape is ""
	shape  string           // a simulated Table VI/VII dataset
}

// experiment is one figure or table of the paper's §VII.
type experiment struct {
	name   string
	family family
	points func(Profile) []point
}

// table lists every experiment in paper order. Figs 3 (GMM) and 5 (NN)
// sweep the binary join, Figs 4 (GMM) and 6 (NN) the 3-way join, each
// along rr (a), dR (b) and the model size (c); Tables VI (GMM, dense) and
// VII (NN, one-hot) run the simulated real datasets at the profile's
// RealScale: package data's comment gives the substitution rationale, and
// benchmark/README.md ("How the numbers line up with the paper") places
// Table VI's Movies 3-way shape among the workloads.
var table = []experiment{
	{"Fig3a", gmmFamily, binary.rr},
	{"Fig3b", gmmFamily, binary.dR},
	{"Fig3c", gmmFamily, binary.size(ks)},
	{"Fig4a", gmmFamily, threeWay.rr},
	{"Fig4b", gmmFamily, threeWay.dR},
	{"Fig4c", gmmFamily, threeWay.size(ks)},
	{"Fig5a", nnFamily, binary.rr},
	{"Fig5b", nnFamily, binary.dR},
	{"Fig5c", nnFamily, binary.size(nhs)},
	{"Fig6a", nnFamily, threeWay.rr},
	{"Fig6b", nnFamily, threeWay.dR},
	{"Fig6c", nnFamily, threeWay.size(nhs)},
	{"TableVI", gmmFamily, datasets("Expedia1", "Expedia2", "Walmart", "Movies",
		"Expedia3", "Expedia4", "Expedia5", "Movies3way")},
	{"TableVII", nnFamily, datasets("WalmartSparse", "MoviesSparse", "Movies3waySparse")},
}

func ks(p Profile) []int  { return p.Ks }
func nhs(p Profile) []int { return p.NHs }

// schema is a star schema the figures sweep: the binary join S ⋈ R, or
// the 3-way join whose R1 is varied while R2 stays fixed (the paper's
// Movies-3way construction).
type schema struct {
	dim      string // the varied dimension in series labels: "dR" or "dR1"
	rrDRs    []int  // the rr sweep's series: the varied dimension's width
	nSMults  []int  // the dR sweep's series: nS in multiples of NSFixed
	threeWay bool
}

var (
	binary   = schema{dim: "dR", rrDRs: []int{5, sweepDR}, nSMults: []int{1, 5}}
	threeWay = schema{dim: "dR1", rrDRs: []int{sweepDR}, nSMults: []int{1}, threeWay: true}
)

// config is the schema with nS fact tuples and a varied dimension of
// p.NR tuples, dR features wide.
func (s schema) config(p Profile, nS, dR int) data.SynthConfig {
	c := data.SynthConfig{NS: nS, NR: []int{p.NR}, DS: sweepDS, DR: []int{dR}}
	if s.threeWay {
		c.NR = append(c.NR, p.NR2)
		c.DR = append(c.DR, p.DR2)
	}
	return c
}

// rr sweeps the tuple ratio rr = nS/nR.
func (s schema) rr(p Profile) []point {
	var pts []point
	for _, dR := range s.rrDRs {
		for _, rr := range p.RRs {
			pts = append(pts, point{series: fmt.Sprintf("%s=%d", s.dim, dR), x: float64(rr),
				synth: s.config(p, rr*p.NR, dR)})
		}
	}
	return pts
}

// dR sweeps the varied dimension's width.
func (s schema) dR(p Profile) []point {
	var pts []point
	for _, mult := range s.nSMults {
		nS := mult * p.NSFixed
		for _, dR := range p.DRs {
			pts = append(pts, point{series: fmt.Sprintf("nS=%d", nS), x: float64(dR),
				synth: s.config(p, nS, dR)})
		}
	}
	return pts
}

// size sweeps the model size over the profile's sizes (Ks or NHs).
func (s schema) size(sizes func(Profile) []int) func(Profile) []point {
	return func(p Profile) []point {
		var pts []point
		for _, n := range sizes(p) {
			pts = append(pts, point{series: fmt.Sprintf("%s=%d", s.dim, sweepDR), x: float64(n), size: n,
				synth: s.config(p, p.NSFixed, sweepDR)})
		}
		return pts
	}
}

// datasets is one table row per simulated dataset.
func datasets(names ...string) func(Profile) []point {
	return func(Profile) []point {
		pts := make([]point, len(names))
		for i, name := range names {
			pts[i] = point{series: name, shape: name}
		}
		return pts
	}
}

// Experiments lists the runnable experiment names in paper order.
func Experiments() []string {
	names := make([]string, len(table))
	for i, e := range table {
		names[i] = e.name
	}
	return names
}

// Run runs one experiment by name, a row per point.
func (h *Harness) Run(name string) ([]Row, error) {
	for _, e := range table {
		if e.name != name {
			continue
		}
		var rows []Row
		for i, pt := range e.points(h.P) {
			row, err := h.runPoint(e, i, pt)
			if err != nil {
				return rows, err
			}
			rows = append(rows, row)
		}
		return rows, nil
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (choose from %v)", name, Experiments())
}
