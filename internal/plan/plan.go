// Package plan is the cost-based strategy planner: given catalog
// statistics for a star/snowflake join (storage.TableStats) and a model
// configuration, it prices each execution strategy — Materialized,
// Streaming, Factorized — as event counts predicted from the catalog ×
// internal/core's per-event flop units (the units the trainers multiply by
// the events they see), plus a block-nested-loops page-I/O model, and
// returns a ranked Plan. factorml.Auto consults it to pick a strategy per
// dataset and configuration; `train -explain` prints its table.
package plan

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"

	"factorml/internal/core"
	"factorml/internal/join"
	"factorml/internal/storage"
	"factorml/internal/trace"
)

// Strategy identifies one execution strategy — the only spelling of one
// in the tree: factorml.Algorithm is an alias of it, and the trainers
// (gmm.Train, nn.Train) take it to pick their access path in factor.Open.
type Strategy int

const (
	// Materialized joins once, writes T to disk, trains reading T (the
	// paper's M-GMM/M-NN baseline).
	Materialized Strategy = iota
	// Streaming re-executes the join on the fly every pass (S-GMM/S-NN).
	Streaming
	// Factorized streams the join and factorizes the computation
	// (F-GMM/F-NN).
	Factorized
	// Auto is not an access path but a request to Choose one: the facade
	// resolves it to the planner's pick before any trainer runs, and a
	// trainer handed Auto refuses it.
	Auto
)

var strategyNames = [...]string{"materialized", "streaming", "factorized", "auto"}

// String names the strategy.
func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
	return strategyNames[s]
}

// ParseStrategy reads a strategy by the name String prints or, for the
// three access paths, by its initial — the paper's M-/S-/F- prefix and
// cmd/train's -algo spelling.
func ParseStrategy(name string) (Strategy, error) {
	for i, n := range strategyNames {
		if name == n || (Strategy(i) != Auto && name == n[:1]) {
			return Strategy(i), nil
		}
	}
	return 0, fmt.Errorf("plan: unknown strategy %q", name)
}

// MarshalJSON renders the strategy by name (for /statsz and BENCH files).
func (s Strategy) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON reads the name MarshalJSON wrote, so a persisted Plan (the
// stream checkpoints the one each attached network refreshes by) loads back.
// Only an access path's full name is one: a persisted choice is never Auto,
// and the one-letter spellings are the command line's.
func (s *Strategy) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return fmt.Errorf("plan: strategy: %w", err)
	}
	v, err := ParseStrategy(name)
	if err != nil || v == Auto || name != v.String() {
		return fmt.Errorf("plan: unknown strategy %q", name)
	}
	*s = v
	return nil
}

// Relation pairs a relation name with its catalog statistics.
type Relation struct {
	Name  string             `json:"name"`
	Stats storage.TableStats `json:"stats"`
}

// SchemaStats is the planner's input: catalog statistics for the fact
// table and every dimension relation of the flattened hierarchy, in join
// (depth-first preorder) order. Parent mirrors join.Spec.Parent (-1 marks a
// direct dimension; nil means every relation is one, a star): it tells the
// cost model which relations the factorized pass folds into one part.
// BlockPages is join.Spec.BlockPages as Collect found it (0 = the join's
// default): the block size the join will run with is the one priced, and a
// plan persisted before the field existed loads as the default.
type SchemaStats struct {
	Fact       Relation   `json:"fact"`
	Dims       []Relation `json:"dims"`
	Parent     []int      `json:"parent,omitempty"`
	HasTarget  bool       `json:"has_target"`
	BlockPages int        `json:"block_pages,omitempty"`
}

// Collect reads the catalog statistics of every relation in the spec.
// Statistics are maintained at append time and persisted in the catalog,
// so this touches no tuple data unless a pre-planner catalog forces a
// one-off key rescan (see storage.TableStats).
func Collect(spec *join.Spec) (*SchemaStats, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	fs, err := spec.S.Stats()
	if err != nil {
		return nil, err
	}
	ss := &SchemaStats{
		Fact:       Relation{Name: spec.S.Schema().Name, Stats: fs},
		Parent:     spec.Parent,
		HasTarget:  spec.S.Schema().HasTarget,
		BlockPages: spec.BlockPages,
	}
	for _, r := range spec.Rs {
		rs, err := r.Stats()
		if err != nil {
			return nil, err
		}
		ss.Dims = append(ss.Dims, Relation{Name: r.Schema().Name, Stats: rs})
	}
	return ss, nil
}

// JoinedWidth returns the feature dimensionality of the (virtual) join.
func (ss *SchemaStats) JoinedWidth() int {
	d := ss.Fact.Stats.Width
	for _, r := range ss.Dims {
		d += r.Stats.Width
	}
	return d
}

// Family selects the model family being priced.
type Family int

const (
	// FamilyGMM prices EM training of a Gaussian mixture.
	FamilyGMM Family = iota
	// FamilyNN prices SGD training of a feed-forward network.
	FamilyNN
)

// String names the family.
func (f Family) String() string {
	if f == FamilyNN {
		return "nn"
	}
	return "gmm"
}

// ModelSpec carries the configuration knobs the cost model depends on.
// The join's block size is not one of them: it belongs to the join
// (SchemaStats.BlockPages).
type ModelSpec struct {
	Family Family

	// GMM: components, EM iterations priced (use MaxIter — the planner
	// cannot foresee early convergence, and all strategies run the same
	// iterations, so the ranking is unaffected), diagonal restriction.
	K        int
	Iters    int
	Diagonal bool

	// NN: hidden layer sizes, epochs, Block-mode updates (dimension caches
	// refill per block instead of per epoch).
	Hidden    []int
	Epochs    int
	BlockMode bool
}

func (m ModelSpec) validate(ss *SchemaStats) error {
	if len(ss.Dims) == 0 {
		return fmt.Errorf("plan: schema has no dimension relations")
	}
	switch m.Family {
	case FamilyGMM:
		if m.K < 1 || m.Iters < 1 {
			return fmt.Errorf("plan: GMM spec needs K >= 1 and Iters >= 1 (got K=%d, Iters=%d)", m.K, m.Iters)
		}
	case FamilyNN:
		if m.Epochs < 1 {
			return fmt.Errorf("plan: NN spec needs Epochs >= 1 (got %d)", m.Epochs)
		}
		// An empty Hidden prices the degenerate [d, 1] network — legal for
		// warm starts of hidden-less models; callers wanting the trainer's
		// default architecture must pass it explicitly.
	default:
		return fmt.Errorf("plan: unknown family %d", int(m.Family))
	}
	return nil
}

// Estimate is one strategy's priced cost: training-math flops (core's
// units × predicted events, where Stats.Ops is the same units × the events
// a run saw), page I/O, and the combined score the ranking uses.
type Estimate struct {
	Strategy Strategy `json:"strategy"`
	Ops      core.Ops `json:"ops"`
	Pages    int64    `json:"pages"`
	Score    float64  `json:"score"`
}

// Plan is a ranked strategy decision.
type Plan struct {
	Chosen    Strategy     `json:"chosen"`
	Model     string       `json:"model"`
	Estimates []Estimate   `json:"estimates"` // ascending score
	Stats     *SchemaStats `json:"stats,omitempty"`
}

// Estimate returns the estimate for one strategy (zero value if absent).
func (p *Plan) Estimate(s Strategy) Estimate {
	for _, e := range p.Estimates {
		if e.Strategy == s {
			return e
		}
	}
	return Estimate{}
}

// CheapestNonMaterializing returns the best-ranked strategy that does not
// write a join table — what a live streaming refresh reuses, where
// materializing next to concurrent readers is off the table.
func (p *Plan) CheapestNonMaterializing() Strategy {
	for _, e := range p.Estimates {
		if e.Strategy != Materialized {
			return e.Strategy
		}
	}
	return Factorized
}

// Options tunes the scoring.
type Options struct {
	// FlopsPerPage converts one logical page access into flop-equivalents
	// for the combined score (default DefaultFlopsPerPage). Raising it
	// biases toward I/O-frugal strategies (Materialized for many passes
	// over a narrow T), lowering it toward compute-frugal ones.
	FlopsPerPage float64
}

// DefaultFlopsPerPage charges one flop per byte moved (8 KiB pages): a
// middle ground between a cold read (far more expensive) and a page the
// operating system already caches (far cheaper).
const DefaultFlopsPerPage = 8192

// Choose prices every strategy for the schema and model and returns the
// ranked plan. Ties prefer Factorized, then Streaming — never materialize
// without a measured reason to.
func Choose(ss *SchemaStats, m ModelSpec, opt Options) (*Plan, error) {
	if err := m.validate(ss); err != nil {
		return nil, err
	}
	fpp := opt.FlopsPerPage
	if fpp == 0 {
		fpp = DefaultFlopsPerPage
	}
	ests := make([]Estimate, 0, int(Auto))
	for s := Materialized; s < Auto; s++ {
		ops := estimateOps(ss, m, s)
		pages := estimatePages(ss, m, s)
		ests = append(ests, Estimate{
			Strategy: s,
			Ops:      ops,
			Pages:    pages,
			Score:    float64(ops.Total()) + fpp*float64(pages),
		})
	}
	pref := map[Strategy]int{Factorized: 0, Streaming: 1, Materialized: 2}
	sort.SliceStable(ests, func(i, j int) bool {
		if ests[i].Score != ests[j].Score {
			return ests[i].Score < ests[j].Score
		}
		return pref[ests[i].Strategy] < pref[ests[j].Strategy]
	})
	return &Plan{
		Chosen:    ests[0].Strategy,
		Model:     m.Family.String(),
		Estimates: ests,
		Stats:     ss,
	}, nil
}

// ChooseCtx is Choose with planner-decision tracing: when ctx carries a
// sampled request trace (internal/trace), the decision records a
// "plan.choose" span carrying the model family and chosen strategy, so
// a slow refresh can be attributed to the strategy the planner picked.
func ChooseCtx(ctx context.Context, ss *SchemaStats, m ModelSpec, opt Options) (*Plan, error) {
	_, sp := trace.Start(ctx, "plan.choose")
	p, err := Choose(ss, m, opt)
	if sp.Active() {
		sp.SetAttr("family", m.Family.String())
		if err != nil {
			sp.Fail(err.Error())
		} else {
			sp.SetAttr("strategy", p.Chosen.String())
		}
	}
	sp.End()
	return p, err
}
