package gmm

import (
	"iter"

	"factorml/internal/core"
	"factorml/internal/linalg"
)

// Moments are the EM sufficient statistics of a K-component mixture over a
// partition (fact part, then one part per direct dimension), taken about an
// origin o_c they store: with PD = x − o_c, ll = Σ ln p(x), N_k = Σγ_c,
// s1_c = Σγ_c·PD and s2_c = Σγ_c·PD·PDᵀ. About an origin inside the data
// s2/N_k − d·dᵀ does not cancel when |µ| ≫ σ, as raw moments do (Chan,
// Golub & LeVeque, 1983). The trainers' origin is the iteration's starting
// means, so every PD their scorer and caches form is one about it.
//
// s2_c is kept as its upper blocks [i][j], i ≤ j (its diagonal for a
// diagonal model), filled by FoldRows (the fact part), FoldCross (per row,
// the blocks between two dimension parts, §V-C) and FoldGroups (once per
// dimension tuple, Eq. 13–18 / 22–24). Step is the one M-step.
type Moments struct {
	p      core.Partition
	part   []int // the part of each joined column
	k      int
	diag   bool
	origin []float64 // K×D
	buf    []float64 // ll, N_k, then per component s1 and s2 end to end
	nk     []float64
	s1     [][]float64         // per component, D wide
	s2     [][][]*linalg.Dense // per component the upper blocks of s2
	v2     [][]float64         // per component the diagonal of s2, for a diagonal model
}

// NewMoments returns zero sums about a zero origin.
func NewMoments(p core.Partition, k int, diagonal bool) *Moments {
	per := 2 * p.D // s1 and the diagonal
	if !diagonal {
		per = p.D
		for i, di := range p.Dims {
			for _, dj := range p.Dims[i:] {
				per += di * dj
			}
		}
	}
	m := &Moments{p: p, k: k, diag: diagonal, origin: make([]float64, k*p.D), buf: make([]float64, 1+k+k*per)}
	m.part = make([]int, p.D)
	for i, off := range p.Offs {
		for j := off; j < off+p.Dims[i]; j++ {
			m.part[j] = i
		}
	}
	m.nk = m.buf[1 : 1+k : 1+k]
	off := 1 + k
	next := func(n int) []float64 {
		off += n
		return m.buf[off-n : off : off]
	}
	m.s1 = make([][]float64, k)
	if diagonal {
		m.v2 = make([][]float64, k)
		for c := range m.s1 {
			m.s1[c], m.v2[c] = next(p.D), next(p.D)
		}
		return m
	}
	parts := p.Parts()
	m.s2 = make([][][]*linalg.Dense, k)
	rows, blocks := make([][]*linalg.Dense, k*parts), make([]*linalg.Dense, k*parts*parts)
	for c := range m.s1 {
		m.s1[c] = next(p.D)
		m.s2[c] = rows[c*parts : (c+1)*parts]
		for i, di := range p.Dims {
			m.s2[c][i] = blocks[(c*parts+i)*parts : (c*parts+i+1)*parts]
			for j := i; j < parts; j++ {
				m.s2[c][i][j] = linalg.NewDenseData(di, p.Dims[j], next(di*p.Dims[j]))
			}
		}
	}
	return m
}

// Reset zeroes the sums and takes origin (K rows of D) as their origin.
func (m *Moments) Reset(origin [][]float64) {
	for c, o := range origin {
		copy(m.origin[c*m.p.D:(c+1)*m.p.D], o)
	}
	m.Zero()
}

// Zero zeroes the sums and keeps the origin.
func (m *Moments) Zero() { linalg.VecZero(m.buf) }

// Clone returns a copy of m, origin and sums.
func (m *Moments) Clone() *Moments {
	c := NewMoments(m.p, m.k, m.diag)
	copy(c.origin, m.origin)
	copy(c.buf, m.buf)
	return c
}

// Add merges o's sums into m; adding in chunk order fixes the reduction.
func (m *Moments) Add(o *Moments) { linalg.VecAdd(m.buf, m.buf, o.buf) }

// AddLL adds a row's log-likelihood.
func (m *Moments) AddLL(v float64) { m.buf[0] += v }

// LL returns the summed log-likelihood.
func (m *Moments) LL() float64 { return m.buf[0] }

// Data returns the sums, ll first, as one flat slice, and Origin the origin
// as one flat K×D slice: what a checkpoint saves and restores.
func (m *Moments) Data() []float64   { return m.buf }
func (m *Moments) Origin() []float64 { return m.origin }

// Deviations writes x − o_c for every component c into dst, K runs of D
// end to end.
func (m *Moments) Deviations(dst, x []float64) {
	D := m.p.D
	x = x[:D]
	for c := 0; c < m.k; c++ {
		o, d := m.origin[c*D:][:D], dst[c*D:][:D]
		for i, v := range x {
			d[i] = v - o[i]
		}
	}
}

// FoldRows adds n rows' fact parts from their K responsibilities (gamma)
// and K deviations x_S − o_c (pd) each, row after row: folding them in two
// calls gives the bits of folding them in one.
func (m *Moments) FoldRows(gamma, pd []float64, n int) {
	k, dS := m.k, m.p.Dims[0]
	for c := 0; c < k; c++ {
		for r := 0; r < n; r++ {
			g, pdc := gamma[r*k+c], pd[(r*k+c)*dS:]
			m.nk[c] += g
			linalg.AxpyN(g, pdc, m.s1[c], dS)
			if m.diag {
				foldDiag(m.v2[c], g, pdc[:dS])
			}
		}
		if !m.diag {
			linalg.SyrkAccumRows(m.s2[c][0][0], gamma[c:], k, pd[c*dS:], k*dS, n)
		}
	}
}

// foldDiag accumulates v2 += w·pd² element-wise — the diagonal of w·pd·pdᵀ.
func foldDiag(v2 []float64, w float64, pd []float64) {
	v2 = v2[:len(pd)]
	for i, v := range pd {
		v2[i] += w * v * v
	}
}

// FoldCross adds one row's Σγ_c·PD_i·PD_jᵀ between every two dimension
// parts i < j, a no-op for a diagonal model: devs[j] is the K deviations
// (QuadCache.PD) of the row's tuple in dimension part j+1.
func (m *Moments) FoldCross(gamma []float64, devs [][]core.QuadCache) {
	for c := 0; c < len(gamma) && !m.diag; c++ {
		for i := range devs {
			for j := i + 1; j < len(devs); j++ {
				linalg.OuterAccum(m.s2[c][1+i][1+j], gamma[c], devs[i][c].PD, devs[j][c].PD)
			}
		}
	}
}

// FoldGroups folds dimension part `part`'s group sums in, each tuple's
// once, in the order groups yields them (ordinal order in the trainer): a
// tuple's sums are K Σ_{n∈t} γ_c, then, for a full covariance, K
// Σ_{n∈t} γ_c·PD_S, and devs(t) returns its K deviations x_R − o_c
// (QuadCache.PD):
//
//	Σ_n γ PD_R       = (Σ_{n∈t} γ) · PD_R
//	Σ_n γ PD_R PD_Rᵀ = (Σ_{n∈t} γ) · PD_R PD_Rᵀ   (its diagonal for a diagonal model)
//	Σ_n γ PD_S PD_Rᵀ = (Σ_{n∈t} γ PD_S) ⊗ PD_R
func (m *Moments) FoldGroups(part int, groups iter.Seq2[int, []float64], devs func(t int) []core.QuadCache) {
	k, dS := m.k, m.p.Dims[0]
	for t, s := range groups {
		run := devs(t)
		for c, w := range s[:k] {
			pd := run[c].PD
			linalg.Axpy(w, pd, m.p.Slice(m.s1[c], part))
			if m.diag {
				foldDiag(m.p.Slice(m.v2[c], part), w, pd)
				continue
			}
			linalg.SyrkAccum(m.s2[c][part][part], w, pd)
			linalg.OuterAccum(m.s2[c][0][part], 1, s[k+c*dS:k+(c+1)*dS], pd)
		}
	}
}

// GroupWidth is how many floats one tuple's group sums take: K, and K·dS
// more for a full covariance's fact–dimension block.
func (m *Moments) GroupWidth() int {
	if m.diag {
		return m.k
	}
	return m.k * (1 + m.p.Dims[0])
}

// AddGroup adds one row to a tuple's group sums s: gamma its K
// responsibilities, pds its K fact-part deviations end to end (unread for
// a diagonal model).
func (m *Moments) AddGroup(s, gamma, pds []float64) {
	w, gv := s[:len(gamma)], s[len(gamma):]
	for c, gc := range gamma {
		w[c] += gc
	}
	if m.diag {
		return
	}
	dS := m.p.Dims[0]
	for c, gc := range gamma {
		linalg.AxpyN(gc, pds[c*dS:], gv[c*dS:], dS)
	}
}

// Step moves model to the M-step solution (Eq. 3–5) over n rows: with
// d = s1/N_k, µ ← o + d and Σ ← s2/N_k − d·dᵀ + RegEps·I, exactly the
// textbook Σγ(x−µ)(x−µ)ᵀ/N_k because Σγ(PD−d) = 0. Σ's upper triangle is
// mirrored. A collapsed component (N_k < CollapseFloor) keeps its mean and
// covariance. Step scales s1 in place: the sums are spent.
func (m *Moments) Step(model *Model, n int) {
	D := m.p.D
	for c, dv := range m.s1 {
		model.Weights[c] = m.nk[c] / float64(n)
		if m.nk[c] < CollapseFloor {
			continue
		}
		inv := 1 / m.nk[c]
		linalg.VecScale(dv, inv, dv)
		cov := model.Covs[c]
		if m.diag {
			cov.Zero()
		}
		for i, di := range dv {
			for j := i; j < D && (j == i || !m.diag); j++ { // a diagonal model: the diagonal alone
				v := m.s2At(c, i, j)*inv - di*dv[j]
				if i == j {
					v += RegEps
				}
				cov.Set(i, j, v)
				cov.Set(j, i, v)
			}
		}
		o := m.origin[c*D:]
		for i := range model.Means[c] {
			model.Means[c][i] = o[i] + dv[i]
		}
	}
}

// s2At returns s2_c's entry (i, j), i ≤ j.
func (m *Moments) s2At(c, i, j int) float64 {
	if m.diag {
		return m.v2[c][i]
	}
	bi, bj := m.part[i], m.part[j]
	return m.s2[c][bi][bj].At(i-m.p.Offs[bi], j-m.p.Offs[bj])
}
