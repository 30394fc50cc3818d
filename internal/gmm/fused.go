package gmm

import (
	"factorml/internal/core"
)

// This file holds the fused E-step kernel: one call scores a fact tuple
// against every mixture component with the per-component state flattened
// into contiguous slices (fact-part mean, flat B00 block, merged log
// constant) instead of three pointer hops per term through compState →
// BlockedSym → Dense. Structural overhead of the unfused path is removed
// (per-term function calls, the cptrs pointer-array fill, per-call
// dimension panics, per-element bounds checks via exact-length
// re-slicing, per-term op-counter bumps), and the matrix terms are
// blocked four rows at a time with independent accumulator chains to
// break the serial one-add-per-cycle dependency the scalar kernels are
// latency-bound on.
//
// The evaluation order is FIXED and deterministic — same inputs, same
// bits, on every worker count and every run — but the four-way summation
// order differs from the unfused reference by design, so fused and
// unfused agree to rounding (≤1e-12 relative, pinned by
// TestFusedKernelMatchesReference) rather than bit-for-bit. Every
// consumer of component log-densities (the serving Scorer, the streaming
// incremental E-step, the factorized trainer, and — over the one-part
// partition, where there are no caches and no cross blocks — the M-/S-
// trainers, Model.LogProb and Model.Responsibilities) evaluates through
// this one kernel — scoreRow, or scoreRowDiag beside it for a diagonal
// model — so all same-code bit-identity guarantees (worker sweeps,
// incremental-vs-full refresh, crash replay) are preserved by
// construction.
// The kernel counts nothing: a call costs core.GMMUnits.Score, which the
// same test pins to what the unfused call sites charge.

// pairBlock is one flattened cross block B[i+1][j+1] (i<j dimension parts)
// of a component's blocked inverse covariance.
type pairBlock struct {
	a  []float64 // flat di×dj block
	dj int
}

// hotComp is the flattened per-component scoring state.
type hotComp struct {
	muS    []float64 // fact-part mean µ_S (aliases Means[c][:dS])
	b00    []float64 // flat dS×dS fact block of the blocked inverse
	pairs  []pairBlock
	invVar []float64 // inverse variances, for scoreRowDiag; nil for a full model
	logK   float64   // logW + logNorm
}

// hotState is the fused kernel over all K components of one precomputed
// model. Build it with buildHot after Model.precompute; it aliases the
// compState matrices (no copies) and is immutable after construction, so
// it is safe for concurrent scoreRow calls with private scratch.
type hotState struct {
	comps []hotComp
	dS    int
}

// buildHot flattens precomputed component states into the fused kernel's
// layout. p is the relation partition the states were blocked over.
func buildHot(m *Model, p core.Partition, states []compState) *hotState {
	q := p.Parts() - 1
	dS := p.Dims[0]
	hs := &hotState{comps: make([]hotComp, m.K), dS: dS}
	for c := range hs.comps {
		hc := &hs.comps[c]
		hc.muS = p.Slice(m.Means[c], 0)
		hc.b00 = states[c].blocked.B[0][0].Data()
		hc.invVar = states[c].invVar
		hc.logK = states[c].logW + states[c].logNorm
		for i := 1; i <= q; i++ {
			for j := i + 1; j <= q; j++ {
				hc.pairs = append(hc.pairs, pairBlock{
					a:  states[c].blocked.B[i][j].Data(),
					dj: p.Dims[j],
				})
			}
		}
	}
	return hs
}

// scoreRow fills logp with every component's factorized log-density term
// for one normalized fact tuple xs (length dS): caches[j] holds the K
// per-component caches of dimension part j+1. allPDS (length K·dS) comes
// back holding the K fact-part deviations PD_S = xs − µ_S,c end to end —
// the factorized trainer folds its M-step moments from them. The
// evaluation order is fixed (deterministic bits for identical inputs);
// see the file comment for how it relates to the unfused reference.
func (hs *hotState) scoreRow(xs []float64, caches [][]core.QuadCache, allPDS, logp []float64) {
	dS := hs.dS
	xs = xs[:dS]
	logp = logp[:len(hs.comps)]
	for c := range hs.comps {
		hc := &hs.comps[c]
		mu := hc.muS[:dS]
		pds := allPDS[c*dS : (c+1)*dS]
		for i, v := range xs {
			pds[i] = v - mu[i]
		}
		// Fact-block quadratic form pdsᵀ·B00·pds, blocked four matrix rows
		// at a time: the four row-dots run as independent accumulator
		// chains over one streamed pds, so the multiplies pipeline instead
		// of serializing on a single add chain (the scalar kernels'
		// bottleneck). Loops are spelled out inline — the compiler refuses
		// to inline helpers with loops, and a call per row would give the
		// ILP win straight back.
		var q0, q1, q2, q3 float64
		b00 := hc.b00
		i := 0
		for ; i+4 <= dS; i += 4 {
			row0 := b00[i*dS : i*dS+dS]
			row1 := b00[(i+1)*dS : (i+1)*dS+dS]
			row2 := b00[(i+2)*dS : (i+2)*dS+dS]
			row3 := b00[(i+3)*dS : (i+3)*dS+dS]
			var s0, s1, s2, s3 float64
			for j, pj := range pds {
				s0 += row0[j] * pj
				s1 += row1[j] * pj
				s2 += row2[j] * pj
				s3 += row3[j] * pj
			}
			q0 += pds[i] * s0
			q1 += pds[i+1] * s1
			q2 += pds[i+2] * s2
			q3 += pds[i+3] * s3
		}
		for ; i < dS; i++ {
			row := b00[i*dS : i*dS+dS]
			var s float64
			for j, pj := range pds {
				s += row[j] * pj
			}
			q0 += pds[i] * s
		}
		q := (q0 + q1) + (q2 + q3)
		// Per-dimension-part cross + self terms through the caches.
		for j := range caches {
			cc := &caches[j][c]
			ra, rb := pds, cc.CrossS
			var r0, r1, r2, r3 float64
			for len(ra) >= 4 && len(rb) >= 4 {
				r0 += ra[0] * rb[0]
				r1 += ra[1] * rb[1]
				r2 += ra[2] * rb[2]
				r3 += ra[3] * rb[3]
				ra, rb = ra[4:], rb[4:]
			}
			for t, v := range ra {
				r0 += v * rb[t]
			}
			q += 2*((r0+r1)+(r2+r3)) + cc.Self
		}
		// Cross terms between two dimension parts (multi-way schemas).
		if len(hc.pairs) > 0 {
			np := 0
			for i := 0; i < len(caches); i++ {
				for j := i + 1; j < len(caches); j++ {
					pb := &hc.pairs[np]
					np++
					x := caches[i][c].PD
					y := caches[j][c].PD[:pb.dj]
					a := pb.a
					dj := pb.dj
					var b0, b1, b2, b3 float64
					ii := 0
					for ; ii+4 <= len(x); ii += 4 {
						row0 := a[ii*dj : ii*dj+dj]
						row1 := a[(ii+1)*dj : (ii+1)*dj+dj]
						row2 := a[(ii+2)*dj : (ii+2)*dj+dj]
						row3 := a[(ii+3)*dj : (ii+3)*dj+dj]
						var s0, s1, s2, s3 float64
						for jj, yj := range y {
							s0 += row0[jj] * yj
							s1 += row1[jj] * yj
							s2 += row2[jj] * yj
							s3 += row3[jj] * yj
						}
						b0 += x[ii] * s0
						b1 += x[ii+1] * s1
						b2 += x[ii+2] * s2
						b3 += x[ii+3] * s3
					}
					for ; ii < len(x); ii++ {
						row := a[ii*dj : ii*dj+dj]
						var s float64
						for jj, yj := range y {
							s += row[jj] * yj
						}
						b0 += x[ii] * s
					}
					q += 2 * ((b0 + b1) + (b2 + b3))
				}
			}
		}
		logp[c] = hc.logK - 0.5*q
	}
}

// scoreRowDiag is scoreRow for a diagonal model, where no block of the
// inverse couples two parts: a component's quadratic form is the fact
// part's Σ PD_S²/σ² plus the cached Self of each matched dimension tuple.
func (hs *hotState) scoreRowDiag(xs []float64, caches [][]core.QuadCache, allPDS, logp []float64) {
	dS := hs.dS
	xs = xs[:dS]
	for c := range hs.comps {
		hc := &hs.comps[c]
		mu := hc.muS[:dS]
		pds := allPDS[c*dS : (c+1)*dS]
		for i, v := range xs {
			pds[i] = v - mu[i]
		}
		q := diagQuadPD(pds, hc.invVar)
		for j := range caches {
			q += caches[j][c].Self
		}
		logp[c] = hc.logK - 0.5*q
	}
}
