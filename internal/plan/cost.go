package plan

import (
	"factorml/internal/core"
	"factorml/internal/join"
	"factorml/internal/storage"
)

// The cost model prices exactly the kernels the trainers charge into
// Stats.Ops at their call sites (see internal/gmm, internal/nn,
// core.FillQuadCache/FactQuad), composed with Ops.Add and Ops.Scale:
//
//	dense EM, per row, per component, per iteration (one pass)
//	    E: sub(d) + quadform(d)
//	    M: moments(d) = axpy(d) + syrk(d), folded from the E-step's PD
//	factorized EM, per iteration (one pass), over the fact part and one
//	part per direct dimension i, wᵢ wide (its whole subtree), mᵢ tuples
//	    cache fills, per tuple of direct dimension i, per component:
//	        sub(wᵢ) + quadform(wᵢ) + matvec(dS×wᵢ)          (Eq. 7–12)
//	    E, per match:  sub(dS) + quadform(dS)
//	                   + Σᵢ dot(dS) + Σᵢ<ⱼ bilinear(wᵢ×wⱼ)   (Eq. 19–21)
//	    M, per match:  moments(dS) + q·axpy(dS) + Σᵢ<ⱼ outer(wᵢ,wⱼ)
//	    M, per tuple:  moments(wᵢ) + outer(dS,wᵢ) through the cached PD —
//	        upper blocks and triangles only, mirrored once (Eq. 22–24)
//
// and the NN equivalents (§VI-A1/A3). The join runner resolves a snowflake's
// sub-dimension hops once per dimension tuple and hands the trainers a star
// over the direct dimensions, so sub-dimension relations contribute width to
// their direct ancestor's part and no part, cache or cross term of their
// own: what a wide sub-dimension costs is its width once per *parent*
// tuple, which is what these formulas charge. The I/O model is the paper's
// block-nested-loops accounting: each pass reads R1 once and rescans S
// once per R1 block; Materialized pays one join plus writing T, then reads
// T per pass. Buffer-pool caching is deliberately ignored (pessimistic for
// re-reads, uniformly across strategies).

// shape extracts the quantities the formulas need. The factorized parts
// are the direct dimensions: each as wide as its whole subtree (the join
// runner appends a dimension tuple's sub-dimension features once per
// tuple), with the direct relation's row count.
type shape struct {
	n    int64   // fact rows
	dS   int     // fact feature width
	d    int     // joined width
	w    []int   // per-direct-dimension subtree widths
	m    []int64 // per-direct-dimension row counts
	q    int     // number of direct dimensions
	hasY bool
}

func (ss *SchemaStats) shape() shape {
	sh := shape{
		n:    ss.Fact.Stats.Rows,
		dS:   ss.Fact.Stats.Width,
		d:    ss.JoinedWidth(),
		hasY: ss.HasTarget,
	}
	for i, r := range ss.Dims {
		if ss.Parent == nil || ss.Parent[i] == -1 {
			sh.w = append(sh.w, 0)
			sh.m = append(sh.m, r.Stats.Rows)
		}
		sh.w[len(sh.w)-1] += r.Stats.Width
	}
	sh.q = len(sh.w)
	return sh
}

// estimateOps prices the training-math flops of one full training run.
func estimateOps(ss *SchemaStats, m ModelSpec, s Strategy) core.Ops {
	sh := ss.shape()
	var total core.Ops
	switch m.Family {
	case FamilyGMM:
		var perIter core.Ops
		if s == Factorized {
			perIter = factGMMIter(sh, m.K, m.Diagonal)
		} else {
			perIter = denseGMMIter(sh, m.K, m.Diagonal)
		}
		total.Add(perIter.Scale(int64(m.Iters)))
	case FamilyNN:
		var perEpoch core.Ops
		if s == Factorized {
			perEpoch = factNNEpoch(sh, m, ss)
		} else {
			perEpoch = denseNNEpoch(sh, m)
		}
		total.Add(perEpoch.Scale(int64(m.Epochs)))
	}
	return total
}

// denseGMMIter prices one dense EM iteration (M-GMM/S-GMM do the same
// math; they differ only in I/O).
func denseGMMIter(sh shape, k int, diagonal bool) core.Ops {
	var kernel core.Ops // per row, per component
	if diagonal {
		kernel.AddDiagQuad(sh.d) // E
	} else {
		kernel.AddSub(sh.d) // E: PD
		kernel.AddQuadForm(sh.d)
	}
	kernel.AddMoments(sh.d, diagonal) // M, from the E-step's PD
	return kernel.Scale(int64(k) * sh.n)
}

// factGMMIter prices one factorized EM iteration.
func factGMMIter(sh shape, k int, diagonal bool) core.Ops {
	var total core.Ops
	// Per-dimension-tuple work: the cache fill (E) and the group flush
	// (M) — once per distinct tuple per iteration, per component; this is
	// the per-group reuse the strategy buys with fan-out.
	for i, wi := range sh.w {
		var perTuple core.Ops
		if diagonal {
			perTuple.AddDiagQuad(wi) // E cache
			perTuple.AddSub(wi)      // M flush: PD
		} else {
			perTuple.AddSub(wi) // E cache: PD
			perTuple.AddQuadForm(wi)
			perTuple.AddMatVec(sh.dS, wi) // E cache: CrossS
			perTuple.AddOuter(sh.dS, wi)  // M flush: S-R cross (upper block)
		}
		perTuple.AddMoments(wi, diagonal) // M flush, through the cached PD
		total.Add(perTuple.Scale(int64(k) * sh.m[i]))
	}
	// Per-match work: per joined row, per component.
	var perMatch core.Ops
	perMatch.AddMoments(sh.dS, diagonal) // M: fact part, from the E-step's PD_S
	if diagonal {
		perMatch.AddDiagQuad(sh.dS) // E
		perMatch.Adds += int64(sh.q)
	} else {
		perMatch.AddSub(sh.dS) // E: PD_S
		perMatch.AddQuadForm(sh.dS)
		for range sh.w { // E: FactQuad per-part cross terms
			perMatch.AddDot(sh.dS)
			perMatch.Adds += 3
			perMatch.Mul++
		}
		for i := 0; i < sh.q; i++ { // E: dimension-dimension cross terms
			for j := i + 1; j < sh.q; j++ {
				perMatch.AddBilinear(sh.w[i], sh.w[j])
				perMatch.Adds++
				perMatch.Mul++
			}
		}
		for i := 0; i < sh.q; i++ { // M: γ-weighted PD_S sums per group
			perMatch.AddAxpy(sh.dS)
		}
		for i := 0; i < sh.q; i++ { // M: dimension-dimension cross blocks (upper)
			for j := i + 1; j < sh.q; j++ {
				perMatch.AddOuter(sh.w[i], sh.w[j])
			}
		}
	}
	total.Add(perMatch.Scale(int64(k) * sh.n))
	return total
}

// nnSizes builds the layer sizes [d, hidden…, 1].
func nnSizes(d int, hidden []int) []int {
	sizes := append([]int{d}, hidden...)
	return append(sizes, 1)
}

// denseNNEpoch prices one dense SGD epoch.
func denseNNEpoch(sh shape, m ModelSpec) core.Ops {
	sizes := nnSizes(sh.d, m.Hidden)
	layers := len(sizes) - 1
	var per core.Ops // per example
	// Forward.
	per.AddMatVec(sizes[1], sizes[0])
	per.Adds += int64(sizes[1])
	for l := 1; l < layers; l++ {
		per.AddMatVec(sizes[l+1], sizes[l])
		per.Adds += int64(sizes[l+1])
	}
	// Backward (upper layers) + input-layer gradient.
	per.Adds++
	for l := layers - 1; l >= 1; l-- {
		per.AddOuterPlain(sizes[l+1], sizes[l])
		per.Adds += int64(sizes[l+1])
		per.AddMatVec(sizes[l], sizes[l+1])
		per.Mul += int64(sizes[l])
	}
	per.AddOuterPlain(sizes[1], sizes[0])
	per.Adds += int64(sizes[1])
	return per.Scale(sh.n)
}

// factNNEpoch prices one factorized SGD epoch (§VI-A1/A3).
func factNNEpoch(sh shape, m ModelSpec, ss *SchemaStats) core.Ops {
	sizes := nnSizes(sh.d, m.Hidden)
	layers := len(sizes) - 1
	nh0 := sizes[1]
	var total core.Ops

	// Dimension cache fills: W₀ᵢ·xᵢ per distinct tuple. R1 tuples fill once
	// per epoch (each belongs to one block); resident relations refill per
	// block under Block-mode updates, once per epoch otherwise.
	refills := int64(1)
	if m.BlockMode {
		refills = ss.numBlocks()
	}
	for i, wi := range sh.w {
		var fill core.Ops
		fill.AddMatVec(nh0, wi)
		times := sh.m[i]
		if i > 0 {
			times *= refills
		}
		total.Add(fill.Scale(times))
	}

	// Per-match forward/backward.
	var per core.Ops
	per.AddMatVec(nh0, sh.dS)              // W₀ₛ·xₛ
	per.Adds += int64(sh.q+1) * int64(nh0) // cached part adds + bias
	for l := 1; l < layers; l++ {
		per.AddMatVec(sizes[l+1], sizes[l])
		per.Adds += int64(sizes[l+1])
	}
	per.Adds++
	for l := layers - 1; l >= 1; l-- {
		per.AddOuterPlain(sizes[l+1], sizes[l])
		per.Adds += int64(sizes[l+1])
		per.AddMatVec(sizes[l], sizes[l+1])
		per.Mul += int64(sizes[l])
	}
	per.AddOuterPlain(nh0, sh.dS) // input gradient, fact columns
	per.Adds += int64(nh0)
	for _, wi := range sh.w {
		per.AddOuterPlain(nh0, wi) // input gradient, dimension columns
	}
	total.Add(per.Scale(sh.n))
	return total
}

// ---------------------------------------------------------------------------
// Page-I/O model.
// ---------------------------------------------------------------------------

// numBlocks estimates how many R1 blocks one block-nested-loops pass
// produces (each rescans the fact table once), at the block size the join
// spec carried when the statistics were collected.
func (ss *SchemaStats) numBlocks() int64 {
	blockPages := ss.BlockPages
	if blockPages <= 0 {
		blockPages = join.DefaultBlockPages
	}
	r1p := ss.Dims[0].Stats.Pages
	if r1p <= 0 {
		return 1
	}
	nb := (r1p + int64(blockPages) - 1) / int64(blockPages)
	if nb < 1 {
		nb = 1
	}
	return nb
}

// tPages estimates the page count of the materialized join result T.
func (ss *SchemaStats) tPages() int64 {
	rec := 8 * (1 + ss.JoinedWidth())
	if ss.HasTarget {
		rec += 8
	}
	perPage := storage.PageDataSize / rec
	if perPage < 1 {
		perPage = 1
	}
	n := ss.Fact.Stats.Rows
	return (n + int64(perPage) - 1) / int64(perPage)
}

// estimatePages prices the page accesses (reads + writes) of a run.
func estimatePages(ss *SchemaStats, m ModelSpec, s Strategy) int64 {
	// Passes over the data: EM reads the rows once for initialization and
	// once per iteration; SGD once per epoch.
	var passes int64
	switch m.Family {
	case FamilyGMM:
		passes = 1 + int64(m.Iters)
	case FamilyNN:
		passes = int64(m.Epochs)
	}
	resident := int64(0)
	for _, r := range ss.Dims[1:] {
		resident += r.Stats.Pages
	}
	joinPass := ss.Dims[0].Stats.Pages + ss.numBlocks()*ss.Fact.Stats.Pages
	switch s {
	case Materialized:
		tp := ss.tPages()
		return resident + joinPass + tp + passes*tp
	default: // Streaming, Factorized: identical access path
		return resident + passes*joinPass
	}
}
