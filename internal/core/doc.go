// Package core distills the paper's central idea — exact factorization of
// the matrix computations inside ML training over a join — into reusable
// primitives shared by the GMM (EM) and NN (backprop) trainers:
//
//   - Partition: how the joined feature vector x = [xS xR1 … xRq] splits
//     across the base relations.
//   - BlockedSym: a symmetric d×d matrix (e.g. Σ⁻¹) cut into partition
//     blocks, so quadratic forms decompose per Eq. 7–12 / Eq. 19–21 of the
//     paper.
//   - QuadCache: per-dimension-tuple cached quantities (PD_R, the self term
//     PD_Rᵀ I_RR PD_R, and the cross vector I_SR·PD_R) that are computed
//     once per distinct dimension tuple and reused for every matching fact
//     tuple — the source of F-GMM's savings.
//   - Ops: floating-point operation counters, so the paper's closed-form
//     saving rate Δτ/τ (§V-B) can be verified against measured counts.
//   - GMMUnits / NNUnits (cost.go): the cost model, written once — what
//     one event of a training pass (a row or match scored, a dimension
//     tuple's cache filled or flushed) costs in Ops. Trainers multiply it
//     by the events a run saw, the planner by the events it predicts; only
//     FactQuad, the reference the units are checked against, counts itself.
//
// Every decomposition here is exact: no approximation is introduced, which
// is why the M-, S- and F- algorithm families produce identical models.
package core
