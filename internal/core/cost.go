package core

// This file is the cost model: the one place a training kernel's flop
// formula is written. A unit is what one event of a training pass costs —
// an event being what a pass does once per datum: score a match, fill or
// flush a dimension tuple's cache — as a function of the model's shape
// alone, nothing about rows, blocks or iterations. The trainers multiply units by the events a
// run saw, at the merge and barrier points where they already count them
// (Stats.Ops); internal/plan by the events it predicts from the catalog
// (Estimate.Ops). Estimate ÷ measured so factors into formulas, which
// cannot disagree, × counts, which can (a dangling key, early convergence).
//
//	EM, per iteration (one pass), over the fact part and one part per
//	factorized direct dimension i, wᵢ wide (its whole subtree), mᵢ tuples
//	    cache fills, per tuple of direct dimension i, per component:
//	        sub(wᵢ) + quadform(wᵢ) + matvec(dS×wᵢ)          (Eq. 7–12)
//	    E, per match:  sub(dS) + quadform(dS)
//	                   + Σᵢ dot(dS) + Σᵢ<ⱼ bilinear(wᵢ×wⱼ)   (Eq. 19–21)
//	    M, per match:  moments(dS) + q·axpy(dS) + Σᵢ<ⱼ outer(wᵢ,wⱼ)
//	    M, per tuple:  moments(wᵢ) + outer(dS,wᵢ) through the cached PD —
//	        upper blocks and triangles only, mirrored once (Eq. 22–24)
//	a diagonal covariance has no blocks, so every matvec, dot, bilinear and
//	outer term above drops out: a fill is diagquad(wᵢ) (it keeps the PD it
//	forms), a match's E-step diagquad(dS) + q adds of the cached shares,
//	and a flush moments(wᵢ) — axpy + γ·PD² — through the cached PD, as the
//	full flush always was.
//
// M- and S- factorize no dimension: q = 0 and dS = D, the joined row is
// all fact part, and the formulas above become Algorithm 1's, per row:
// sub(D) + quadform(D) + moments(D) (diagquad(D) + moments(D) diagonal),
// with no fill and no flush.
//
// The NN equivalents (§VI-A1/A3), for layer sizes [d, nh0, …, 1], where
// "upper" is the layers above the input, forward and back:
//
//	SGD, per epoch, over the fact part and q factorized direct dimensions
//	    fill, per tuple of dimension i: matvec(nh0×wᵢ)  (once per pass, or
//	        per block under Block updates; R1's once per pass)
//	    per match: matvec(nh0×dS) + q+1 adds + upper
//	               + outer(nh0, dS) + q·nh0 adds       (ΔᵀX over the fact
//	                   columns; δ⁰ into each tuple's sum)
//	    flush, per tuple of dimension i, once per fill: outer(nh0, wᵢ)
//
// and at q = 0 (M-, S-), per row: matvec(nh0×d) + nh0 adds + upper +
// outer(nh0, d) — the plain backprop of the joined row.
//
// The input layer's gradient regroups Σ_n δ⁰_n·x_nᵀ by dimension tuple,
// which is exact because a step follows a whole pass or block, never one
// row. Factorization stops at layer 1: §VI-A2's layer-2 sharing would
// save no multiply per match and add a layer-2 mat-vec per dimension tuple
// and per refill, so no trainer runs it and no unit prices it
// (TestLayer2SharingCostsMore prices it from Ops primitives). The join
// runner resolves a snowflake's sub-dimension hops once per dimension
// tuple and hands the trainers a star over the direct dimensions, so
// sub-dimension relations contribute width to their direct ancestor's part
// and no part, cache or cross term of their own: what a wide sub-dimension
// costs is its width once per *parent* tuple, which is what these formulas
// charge.
//
// The independent checks on the table count where the work is done, or in
// closed form: FactQuad and gmm.Scorer's unfused loop — the reference the
// fused E-step kernel is pinned to — charge term by term at their call
// sites, and TestFusedKernelMatchesReference compares that count with
// GMMUnits.Score; TestSigmaStepSavingRateMatchesClosedForm,
// TestForwardSavingMatchesClosedForm and TestLayer2SharingCostsMore hold the
// paper's closed forms. The root TestEstimateEqualsMeasuredGrid
// pins estimate to measured for every model and strategy.

// GMMUnits are the per-event charges of one EM iteration, all K components
// included. Fill and Flush are indexed by dimension part (1 … q; entry 0,
// the fact part, is unused).
type GMMUnits struct {
	Score Ops   // a match through the E-step alone — what FactQuad's call sites charge
	Match Ops   // a match through the trainer: Score, the fact part's moments, the group scatter and the dimension–dimension cross blocks
	Fill  []Ops // a tuple of dimension part i: its E-step cache
	Flush []Ops // a tuple of dimension part i: its group sums folded into the moments
}

// NewGMMUnits prices a K-component mixture over partition p (part 0 the
// fact relation; the one-part partition [D] for a path that factorizes no
// dimension). A diagonal covariance has no blocks: each part pays for its
// own columns only.
func NewGMMUnits(p Partition, k int, diagonal bool) GMMUnits {
	dS, parts := p.Dims[0], p.Parts()
	u := GMMUnits{Fill: make([]Ops, parts), Flush: make([]Ops, parts)}
	var score, scatter Ops // per component
	if diagonal {
		score.AddDiagQuad(dS)
		score.Adds += int64(parts - 1) // the cached shares of the quadratic form
	} else {
		score.AddSub(dS) // PD_S
		score.AddQuadForm(dS)
	}
	for i := 1; i < parts; i++ {
		wi := p.Dims[i]
		var fill, flush Ops
		if diagonal {
			fill.AddDiagQuad(wi)
		} else {
			fill.AddSub(wi) // PD
			fill.AddQuadForm(wi)
			fill.AddMatVec(dS, wi) // CrossS
			flush.AddOuter(dS, wi) // S-R cross block (upper)
			score.AddDot(dS)       // 2·PD_S·CrossS + Self
			score.Adds += 3
			score.Mul++
			scatter.AddAxpy(dS) // γ·PD_S into the tuple's group sum
			for j := i + 1; j < parts; j++ {
				score.AddBilinear(wi, p.Dims[j]) // dimension–dimension cross term
				score.Adds++
				score.Mul++
				scatter.AddOuter(wi, p.Dims[j]) // and its cross block (upper)
			}
		}
		flush.AddMoments(wi, diagonal) // through the cached PD
		u.Fill[i], u.Flush[i] = fill.Scale(int64(k)), flush.Scale(int64(k))
	}
	match := score.Plus(scatter)
	match.AddMoments(dS, diagonal) // the fact part, from the E-step's PD_S
	u.Score, u.Match = score.Scale(int64(k)), match.Scale(int64(k))
	return u
}

// NNUnits are the per-event charges of one SGD epoch. Fill and Flush are
// indexed by dimension part (1 … q; entry 0 is unused).
type NNUnits struct {
	Match Ops   // a match through the trainer: layer 1 from the fact part plus the cached parts, the upper layers and backward pass, the fact columns' input-layer gradient and δ⁰ into each dimension tuple's sum
	Fill  []Ops // a tuple of dimension part i: W₀ᵢ·xᵢ
	Flush []Ops // a tuple of dimension part i: its δ⁰ sum's outer product with xᵢ, part i's input-layer gradient
}

// NewNNUnits prices a network with layer sizes [d, hidden…, 1] over
// partition p (p.D == sizes[0]; the one-part partition [d] for a path that
// factorizes no dimension).
func NewNNUnits(p Partition, sizes []int) NNUnits {
	layers := len(sizes) - 1
	dS, nh0, q := p.Dims[0], sizes[1], p.Parts()-1

	// From the first hidden layer up and back down.
	var upper Ops
	for l := 1; l < layers; l++ {
		upper.AddMatVec(sizes[l+1], sizes[l])
		upper.Adds += int64(sizes[l+1]) // bias
	}
	upper.Adds++ // o − y
	for l := layers - 1; l >= 1; l-- {
		upper.AddOuterPlain(sizes[l+1], sizes[l]) // layer l's weight gradient
		upper.Adds += int64(sizes[l+1])           // and bias gradient
		upper.AddMatVec(sizes[l], sizes[l+1])     // δ^{l-1} = W_lᵀ·δ^l …
		upper.Mul += int64(sizes[l])              // … ⊙ f'(a^{l-1})
	}
	upper.Adds += int64(nh0) // input-layer bias gradient

	u := NNUnits{Match: upper, Fill: make([]Ops, p.Parts()), Flush: make([]Ops, p.Parts())}
	u.Match.AddMatVec(nh0, dS)              // W₀ₛ·xₛ
	u.Match.Adds += int64(q+1) * int64(nh0) // the q cached parts and the bias
	u.Match.AddOuterPlain(nh0, dS)          // ΔᵀX over the fact columns
	u.Match.Adds += int64(q) * int64(nh0)   // δ⁰ into the q tuples' sums
	for i := 1; i <= q; i++ {
		u.Fill[i].AddMatVec(nh0, p.Dims[i])
		u.Flush[i].AddOuterPlain(nh0, p.Dims[i])
	}
	return u
}
