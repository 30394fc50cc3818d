package experiments

import (
	"factorml/internal/join"
)

// IOModel is the paper's §V-A analytic I/O cost model, in logical page
// reads, for `iter` EM iterations — at one pass per iteration, which is
// what the trainers here make (internal/gmm folds the M-step into the
// E-step pass; the paper's Algorithm 1 reads the data three times).
type IOModel struct {
	RPages, SPages, TPages int64
	BlockPages             int64
	Iters                  int64
}

func (m IOModel) blocks() int64 {
	if m.RPages == 0 {
		return 0
	}
	return (m.RPages + m.BlockPages - 1) / m.BlockPages
}

// JoinPass is the cost of one streaming pass over the join:
// |R| + ceil(|R|/B)·|S|.
func (m IOModel) JoinPass() int64 {
	return m.RPages + m.blocks()*m.SPages
}

// MGMM is the materialized strategy's total: one join pass, write |T|, then
// iter reads of T.
func (m IOModel) MGMM() int64 {
	return m.JoinPass() + m.TPages + m.Iters*m.TPages
}

// SGMM is the streaming strategy's total: iter join passes (F-GMM has the
// identical I/O profile, §V-B).
func (m IOModel) SGMM() int64 {
	return m.Iters * m.JoinPass()
}

// SWins reports whether the streaming strategy reads fewer pages than the
// materialized one under this model — the crossover condition of §V-A.
func (m IOModel) SWins() bool { return m.SGMM() < m.MGMM() }

// ModelFor builds the analytic model for a join spec (binary joins only:
// the formula of §V-A is stated for two relations).
func ModelFor(spec *join.Spec, iters int) IOModel {
	blockPages := int64(spec.BlockPages)
	if blockPages <= 0 {
		blockPages = int64(join.DefaultBlockPages)
	}
	tPages := estimateTPages(spec)
	return IOModel{
		RPages:     spec.Rs[0].NumPages(),
		SPages:     spec.S.NumPages(),
		TPages:     tPages,
		BlockPages: blockPages,
		Iters:      int64(iters),
	}
}

// estimateTPages computes the exact page count of the materialized join
// result from its record width and the fact cardinality (PK/FK join: one
// output row per fact row).
func estimateTPages(spec *join.Spec) int64 {
	schema := join.JoinedSchema(spec, "estimate")
	perPage := int64(schema.RecordsPerPage())
	n := spec.S.NumTuples()
	return (n + perPage - 1) / perPage
}
