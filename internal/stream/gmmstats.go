package stream

import (
	"fmt"
	"math/bits"
	"slices"

	"factorml/internal/core"
	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/linalg"
	"factorml/internal/parallel"
	"factorml/internal/storage"
)

// StatChunkRows is the absolute-indexed chunk size of the statistics pass:
// chunk i always covers fact rows [i·StatChunkRows, (i+1)·StatChunkRows),
// no matter when or under how many workers those rows are absorbed. Like
// every chunk-geometry constant in this codebase it is independent of the
// worker count, because it fixes the floating-point reduction order of the
// fact-part sums (see the package comment).
const StatChunkRows = 256

// factSums are the statistics a fact row contributes on its own: its
// log-likelihood and, per component, the mass Σγ, Σγ·x_S and the upper
// triangle of Σγ·x_S·x_Sᵀ, in one buffer — zeroing, copying and adding the
// sums are vector operations on it. All sums are raw (uncentered) moments,
// which makes them independent of the model parameters: statistics absorbed
// under different refresh generations compose additively.
type factSums struct {
	buf []float64       // log-likelihood, then nk, s1 and s2 end to end
	nk  []float64       // K
	s1  []float64       // K×dS
	s2  []*linalg.Dense // K views of dS×dS
}

func newFactSums(k, dS int) *factSums {
	f := &factSums{buf: make([]float64, 1+k*(1+dS+dS*dS))}
	f.nk, f.s1 = f.buf[1:1+k], f.buf[1+k:1+k*(1+dS)]
	for c := 0; c < k; c++ {
		off := 1 + k*(1+dS) + c*dS*dS
		f.s2 = append(f.s2, linalg.NewDenseData(dS, dS, f.buf[off:off+dS*dS]))
	}
	return f
}

// foldRows adds n rows — gamma their K responsibilities each, xs their dS
// fact features each — every sum taking them one after the other in row
// order, so folding a chunk in two calls gives the bits of folding it in one.
func (f *factSums) foldRows(gamma, xs []float64, n int) {
	k := len(f.nk)
	dS := len(f.s1) / k
	for c := 0; c < k; c++ {
		s1 := f.s1[c*dS : (c+1)*dS]
		for r := 0; r < n; r++ {
			g := gamma[r*k+c]
			f.nk[c] += g
			linalg.AxpyN(g, xs[r*dS:], s1, dS)
		}
		linalg.SyrkAccumRows(f.s2[c], gamma[c:], k, xs, dS, n)
	}
}

// slab is one flat table of per-key accumulators: slot i belongs to keys[i]
// and owns vals[i·stride : (i+1)·stride]. A group slab is keyed by the
// direct dimension tuple's dense index and finds slots through a table
// indexed by it; a pair slab is keyed by two such indexes packed into one
// word and finds slots by open addressing. Slots are never removed — fact
// rows are append-only, so the keys a prefix of the table references only
// grow — which lets a rebaseline zero the values in place.
type slab struct {
	stride int
	keys   []uint64
	vals   []float64
	index  []int32 // 1 + slot, 0 = none; by key, or by hash when hashed
	hashed bool
}

// cell returns the index entry of key, growing the index to hold it.
func (s *slab) cell(key uint64) *int32 {
	if !s.hashed {
		if grow := int(key) + 1 - len(s.index); grow > 0 {
			s.index = append(s.index, make([]int32, grow)...)
		}
		return &s.index[key]
	}
	if 2*(len(s.keys)+1) > len(s.index) {
		s.reindex()
	}
	shift := 64 - uint(bits.TrailingZeros(uint(len(s.index))))
	for h := key * 0x9E3779B97F4A7C15 >> shift; ; h = (h + 1) & uint64(len(s.index)-1) {
		if c := &s.index[h]; *c == 0 || s.keys[*c-1] == key {
			return c
		}
	}
}

// reindex rebuilds the index from the keys; a hashed one comes out at most
// half full with one more key in it.
func (s *slab) reindex() {
	n := 0
	if s.hashed {
		for n = 16; n < 2*(len(s.keys)+1); n *= 2 {
		}
	}
	s.index = make([]int32, n)
	for i, key := range s.keys {
		*s.cell(key) = int32(i + 1)
	}
}

// at returns key's accumulators, giving it a zeroed slot on first use.
func (s *slab) at(key uint64) []float64 {
	c := s.cell(key)
	if *c == 0 {
		s.keys = append(s.keys, key)
		s.vals = append(s.vals, make([]float64, s.stride)...)
		*c = int32(len(s.keys))
	}
	i := int(*c-1) * s.stride
	return s.vals[i : i+s.stride]
}

// Footprint is what one model's maintained statistics hold.
type Footprint struct {
	Rows   int64 `json:"rows"`   // fact rows absorbed
	Groups int   `json:"groups"` // direct dimension tuples with a slot
	Pairs  int   `json:"pairs"`  // cross-dimension tuple pairs with a slot
	Bytes  int64 `json:"bytes"`  // retained by the slabs, their indexes and the fact sums
}

// GMMStats is the maintained factorized sufficient statistics of one
// attached mixture model, over the partition the factorized trainers use:
// the fact part plus one part per DIRECT dimension, a group being a direct
// dimension tuple with its resolved subtree's features appended. The fact
// part's own sums are kept apart for complete chunks and the trailing
// partial one (see the package comment for why that makes incremental
// absorption bit-identical to a from-scratch pass).
type GMMStats struct {
	rv    *join.Resolver
	nodes []int          // direct dimension d's subtree is plan nodes nodes[d] … nodes[d+1]-1
	p     core.Partition // fact part, then one part per direct dimension, as wide as its subtree
	k     int

	rows       int64     // fact rows absorbed
	done, open *factSums // over the complete chunks; over the trailing partial one
	grp        []slab    // per direct dimension: K Σγ, then K×dS Σγ·x_S
	pairs      []slab    // per pairOf entry: K Σγ
	pairOf     [][2]int  // direct dimension pairs (i<j)
	// seen[d][g] is 1 + the position of group g in the running pass's
	// dimension caches; all zero between passes.
	seen [][]int32
}

// NewGMMStats builds empty statistics for a K-component mixture over the
// hierarchy rv resolves, below a fact relation of dS features.
func NewGMMStats(rv *join.Resolver, dS, k int) *GMMStats {
	st := &GMMStats{rv: rv, k: k, done: newFactSums(k, dS), open: newFactSums(k, dS)}
	dims := []int{dS}
	for i, ix := range rv.Idxs {
		if rv.Parent[i] == -1 {
			st.nodes = append(st.nodes, i)
			dims = append(dims, 0)
		}
		dims[len(dims)-1] += ix.Width()
	}
	q := len(st.nodes)
	st.nodes = append(st.nodes, len(rv.Idxs))
	st.p = core.NewPartition(dims)
	st.seen = make([][]int32, q)
	for i := 0; i < q; i++ {
		st.grp = append(st.grp, slab{stride: k * (1 + dS)})
		for j := i + 1; j < q; j++ {
			st.pairOf = append(st.pairOf, [2]int{i, j})
			st.pairs = append(st.pairs, slab{stride: k, hashed: true})
		}
	}
	return st
}

// Rows returns how many fact rows have been absorbed.
func (st *GMMStats) Rows() int64 { return st.rows }

// LogLikelihood returns the accumulated data log-likelihood (each row's
// contribution is as of its absorb-time model).
func (st *GMMStats) LogLikelihood() float64 { return st.done.buf[0] + st.open.buf[0] }

// Footprint reports the statistics' size.
func (st *GMMStats) Footprint() Footprint {
	fp := Footprint{Rows: st.rows, Bytes: int64(8 * (len(st.done.buf) + len(st.open.buf)))}
	bytes := func(s *slab) int64 { return int64(8*cap(s.keys) + 8*cap(s.vals) + 4*cap(s.index)) }
	for d := range st.grp {
		fp.Groups += len(st.grp[d].keys)
		fp.Bytes += bytes(&st.grp[d]) + int64(4*cap(st.seen[d]))
	}
	for i := range st.pairs {
		fp.Pairs += len(st.pairs[i].keys)
		fp.Bytes += bytes(&st.pairs[i])
	}
	return fp
}

// Reset drops every absorbed row, so the next absorb rebuilds from
// scratch (the rebaseline path). The slabs keep their slots and are zeroed
// in place: re-absorbing the table touches every one of them again.
func (st *GMMStats) Reset() {
	st.rows = 0
	linalg.VecZero(st.done.buf)
	linalg.VecZero(st.open.buf)
	for d := range st.grp {
		linalg.VecZero(st.grp[d].vals)
	}
	for i := range st.pairs {
		linalg.VecZero(st.pairs[i].vals)
	}
}

// groupFeatures writes group g of direct dimension d — the tuple's own
// features, then its subtree's in plan order — into dst, following the
// sub-keys as they are pinned NOW: a dimension update that repoints one
// shows in the next cache fill and the next Step. It copies out of the
// resident indexes' feature views, so no Upsert of these indexes may run
// concurrently (the stream absorbs and upserts under one mutex).
func (st *GMMStats) groupFeatures(d, g int, dst []float64) error {
	rv := st.rv
	n0, n1 := st.nodes[d], st.nodes[d+1]
	var posBuf [8]int
	pos := posBuf[:]
	if len(rv.Idxs) > len(pos) {
		pos = make([]int, len(rv.Idxs))
	}
	for i := n0; i < n1; i++ {
		if pos[i] = g; i > n0 {
			if _, err := rv.Hop(i, nil, pos); err != nil {
				return err
			}
		}
		_, x := rv.Idxs[i].At(pos[i])
		dst = dst[copy(dst, x):]
	}
	return nil
}

// absorbChunk is one chunk of the statistics pass on its way from the
// scan through a scoring worker to the ordered merge.
type absorbChunk struct {
	n      int
	xs     []float64 // n×dS fact features
	gidx   []int32   // n×q group of every row in every direct dimension
	cidx   []int32   // n×q the groups' positions in the pass's dimension caches
	gamma  []float64 // n×K responsibilities
	fact   *factSums // the absolute chunk's fact sums up to this chunk's last row
	sc     *gmm.ScoreScratch
	caches [][]core.QuadCache
}

// dimCache holds one pass's per-dimension-tuple scoring caches of a direct
// dimension: a group takes the next position on first reference. Per
// position buf holds the group's features, then K × (PD, CrossS).
type dimCache struct {
	width, stride int
	groups        []int32 // group at each position
	qc            []core.QuadCache
	buf           []float64
}

// Absorb scores fact rows [Rows(), fact.NumTuples()) under model and folds
// them into the statistics, in time proportional to that range. It follows
// the factorized trainer's shape: the scan resolves every row's direct
// dimension tuples and cuts the rows into chunks at absolute boundaries,
// filling the scoring caches of a dimension tuple the first time the pass
// meets it; workers compute each chunk's responsibilities and the fact
// part's sums; the merge, strictly in chunk order, scatters every row's γ
// and γ·x_S into its groups' and group pairs' slots. Absorbing in any batch
// split — and under any worker count — produces bit-identical sums.
func (st *GMMStats) Absorb(model *gmm.Model, fact *storage.Table, workers int) error {
	k, q, dS := st.k, len(st.grp), st.p.Dims[0]
	if model.K != k || model.D != st.p.D {
		return fmt.Errorf("stream: model (K=%d, D=%d) does not match statistics (K=%d, D=%d)",
			model.K, model.D, k, st.p.D)
	}
	if sch := fact.Schema(); sch.NumKeys()-1 != q || sch.NumFeatures() != dS {
		return fmt.Errorf("stream: fact table %q has %d foreign keys and %d features, statistics expect %d and %d",
			sch.Name, sch.NumKeys()-1, sch.NumFeatures(), q, dS)
	}
	r0, r1 := st.rows, fact.NumTuples()
	if r0 > r1 {
		return fmt.Errorf("stream: statistics cover %d rows but fact table %q has %d — rows are append-only", r0, fact.Schema().Name, r1)
	}
	if r0 == r1 {
		return nil
	}
	scorer, err := model.NewScorer(st.p)
	if err != nil {
		return err
	}
	// Never more workers than chunks: a delta of one chunk runs inline.
	nw := min(parallel.Workers(workers), int((r1+StatChunkRows-1)/StatChunkRows-r0/StatChunkRows))

	// A pass references at most one group per new row and dimension, and no
	// more than the dimension has: the caches are sized for that, so their
	// cost follows the delta, not the dimension tables.
	caches := make([]dimCache, q)
	for d := range caches {
		dc := &caches[d]
		groups := st.rv.Idxs[st.nodes[d]].Len()
		if grow := groups - len(st.seen[d]); grow > 0 {
			st.seen[d] = append(st.seen[d], make([]int32, grow)...)
		}
		n := int(min(r1-r0, int64(groups)))
		dc.width = st.p.Dims[1+d]
		dc.stride = dc.width + k*(dc.width+dS)
		dc.groups = make([]int32, 0, n)
		dc.qc = make([]core.QuadCache, n*k)
		dc.buf = make([]float64, n*dc.stride)
	}
	defer func() {
		for d := range caches {
			for _, g := range caches[d].groups {
				st.seen[d][g] = 0
			}
		}
	}()

	// fresh lists the groups the chunk being cut met first; fill computes
	// their caches (disjoint positions, so it runs on the pool) before the
	// chunk is handed to a worker.
	type cachePos struct{ d, at int }
	var fresh []cachePos
	fill := func(a, b int) error {
		for _, f := range fresh[a:b] {
			dc := &caches[f.d]
			base := f.at * dc.stride
			run := dc.qc[f.at*k : (f.at+1)*k]
			for c := range run {
				pd := base + dc.width + c*(dc.width+dS)
				cs := pd + dc.width
				run[c].PD = dc.buf[pd:cs:cs]
				run[c].CrossS = dc.buf[cs : cs+dS : cs+dS]
			}
			scorer.FillDimCaches(run, 1+f.d, dc.buf[base:base+dc.width], nil)
		}
		return nil
	}

	newChunk := func() *absorbChunk {
		return &absorbChunk{
			xs:     make([]float64, StatChunkRows*dS),
			gidx:   make([]int32, StatChunkRows*q),
			cidx:   make([]int32, StatChunkRows*q),
			gamma:  make([]float64, StatChunkRows*k),
			fact:   newFactSums(k, dS),
			sc:     scorer.NewScratch(),
			caches: make([][]core.QuadCache, q),
		}
	}
	produce := func(f *parallel.Feed[*absorbChunk]) error {
		sc, err := fact.NewScannerAt(r0)
		if err != nil {
			return err
		}
		var cur *absorbChunk // taken when the chunk's first row arrives
		emit := func() error {
			if err := parallel.RunRange(nw, len(fresh), fill); err != nil {
				return err
			}
			fresh = fresh[:0]
			c := cur
			cur = nil
			return f.Emit(c)
		}
		for row := r0; row < r1; row++ {
			if !sc.Next() {
				if err := sc.Err(); err != nil {
					return err
				}
				return fmt.Errorf("stream: fact table %q ended early at row %d", fact.Schema().Name, row)
			}
			if cur == nil {
				cur = f.Next(newChunk)
				cur.n = 0
				if row == r0 {
					// The first chunk continues the open one (all zero at a
					// boundary); every later one starts from the zero its
					// previous merge left.
					copy(cur.fact.buf, st.open.buf)
				}
			}
			t := sc.Tuple()
			copy(cur.xs[cur.n*dS:(cur.n+1)*dS], t.Features)
			for d := 0; d < q; d++ {
				ix := st.rv.Idxs[st.nodes[d]]
				g, ok := ix.Pos(t.Keys[1+d])
				if !ok {
					return fmt.Errorf("stream: fact row %d (sid %d): unknown foreign key %d for dimension table %q",
						row, t.PrimaryKey(), t.Keys[1+d], ix.Name())
				}
				at := int(st.seen[d][g]) - 1
				if at < 0 {
					dc := &caches[d]
					at = len(dc.groups)
					if err := st.groupFeatures(d, g, dc.buf[at*dc.stride:][:dc.width]); err != nil {
						return fmt.Errorf("stream: fact row %d (sid %d): %w", row, t.PrimaryKey(), err)
					}
					dc.groups = append(dc.groups, int32(g))
					st.seen[d][g] = int32(at + 1)
					fresh = append(fresh, cachePos{d, at})
				}
				cur.gidx[cur.n*q+d], cur.cidx[cur.n*q+d] = int32(g), int32(at)
			}
			cur.n++
			if (row+1)%StatChunkRows == 0 {
				if err := emit(); err != nil {
					return err
				}
			}
		}
		if cur != nil {
			return emit()
		}
		return nil
	}
	work := func(c *absorbChunk) (*absorbChunk, error) {
		for i := 0; i < c.n; i++ {
			for d := range c.caches {
				at := int(c.cidx[i*q+d])
				c.caches[d] = caches[d].qc[at*k : (at+1)*k]
			}
			c.fact.buf[0] += scorer.Responsibilities(c.xs[i*dS:(i+1)*dS], c.caches, c.sc, c.gamma[i*k:(i+1)*k])
		}
		c.fact.foldRows(c.gamma, c.xs, c.n)
		return c, nil
	}
	merge := func(c *absorbChunk) error {
		for i := 0; i < c.n; i++ {
			gamma := c.gamma[i*k : (i+1)*k]
			x := c.xs[i*dS : (i+1)*dS]
			groups := c.gidx[i*q : (i+1)*q]
			for d, g := range groups {
				v := st.grp[d].at(uint64(g))
				for cc, gc := range gamma {
					v[cc] += gc
					linalg.AxpyN(gc, x, v[k+cc*dS:], dS)
				}
			}
			for pi, pr := range st.pairOf {
				w := st.pairs[pi].at(uint64(groups[pr[0]])<<32 | uint64(groups[pr[1]]))
				for cc, gc := range gamma {
					w[cc] += gc
				}
			}
		}
		if st.rows += int64(c.n); st.rows%StatChunkRows == 0 {
			linalg.VecAdd(st.done.buf, st.done.buf, c.fact.buf)
			linalg.VecZero(st.open.buf)
		} else {
			copy(st.open.buf, c.fact.buf)
		}
		linalg.VecZero(c.fact.buf)
		return nil
	}
	return parallel.Run(nw, produce, work, merge)
}

// Step runs the M-step over the statistics as they stand and returns the
// refreshed model (prev supplies the covariance structure — a diagonal
// mixture refreshes as a diagonal one — and the parameters of collapsed
// components, mirroring the trainers' collapse handling). One sweep reads the slabs in
// place and assembles all K components: groups in dense index order, group
// pairs in key order, every group's features resolved once. The result is
// therefore a pure function of the absorbed rows and the dimension tuples —
// independent of slot order and worker count.
func (st *GMMStats) Step(prev *gmm.Model, regEps float64) (*gmm.Model, error) {
	n := st.Rows()
	if n == 0 {
		return nil, fmt.Errorf("stream: no absorbed rows to refresh from")
	}
	k, dS, D := st.k, st.p.Dims[0], st.p.D

	// Per component the raw first moment over the joined width and the raw
	// second moment's diagonal and upper blocks.
	s1 := make([][]float64, k)
	s2 := make([]*core.BlockedSym, k)
	for c := range s2 {
		s1[c] = make([]float64, D)
		s2[c] = core.NewBlockedZero(st.p)
	}
	// Every block touching a dimension is rebuilt from the per-group (or per
	// group-pair) γ-sums times the groups' CURRENT features.
	feats := make([][]float64, len(st.grp))
	for d := range st.grp {
		sl := &st.grp[d]
		dR := st.p.Dims[1+d]
		feats[d] = make([]float64, len(sl.keys)*dR)
		for g, slot := range sl.index {
			if slot == 0 {
				continue
			}
			x := feats[d][int(slot-1)*dR : int(slot)*dR]
			if err := st.groupFeatures(d, g, x); err != nil {
				return nil, fmt.Errorf("stream: dimension table %q tuple %d: %w", st.rv.Idxs[st.nodes[d]].Name(), g, err)
			}
			v := sl.vals[int(slot-1)*sl.stride : int(slot)*sl.stride]
			for c := 0; c < k; c++ {
				linalg.Axpy(v[c], x, st.p.Slice(s1[c], 1+d))
				linalg.SyrkAccum(s2[c].B[1+d][1+d], v[c], x)
				linalg.OuterAccum(s2[c].B[0][1+d], 1, v[k+c*dS:k+(c+1)*dS], x)
			}
		}
	}
	var order []uint64
	for pi, pr := range st.pairOf {
		sl := &st.pairs[pi]
		order = append(order[:0], sl.keys...)
		slices.Sort(order)
		gi, gj := &st.grp[pr[0]], &st.grp[pr[1]]
		di, dj := st.p.Dims[1+pr[0]], st.p.Dims[1+pr[1]]
		for _, key := range order {
			a, b := int(gi.index[key>>32]-1), int(gj.index[uint32(key)]-1)
			xi, xj := feats[pr[0]][a*di:(a+1)*di], feats[pr[1]][b*dj:(b+1)*dj]
			for c, w := range sl.at(key) {
				linalg.OuterAccum(s2[c].B[1+pr[0]][1+pr[1]], w, xi, xj)
			}
		}
	}

	out := prev.Clone()
	raw := linalg.NewDense(D, D)
	for c := 0; c < k; c++ {
		nk := st.done.nk[c] + st.open.nk[c]
		out.Weights[c] = nk / float64(n)
		if nk < gmm.CollapseFloor {
			continue // frozen: keep prev mean and covariance
		}
		linalg.VecAdd(s1[c][:dS], st.done.s1[c*dS:(c+1)*dS], st.open.s1[c*dS:(c+1)*dS])
		s2[c].B[0][0].CopyFrom(st.done.s2[c])
		s2[c].B[0][0].Add(st.open.s2[c])
		s2[c].AssembleInto(raw)
		// µ = E_γ[x], Σ = E_γ[x xᵀ] − µµᵀ (+ regularizer), from the upper
		// triangle and mirrored, so Σ is symmetric by construction.
		mu := out.Means[c]
		for i, v := range s1[c] {
			mu[i] = v / nk
		}
		cov := linalg.NewDense(D, D)
		for i := 0; i < D; i++ {
			for j := i; j < D; j++ {
				if prev.Diagonal && j > i {
					break // a diagonal M-step is the diagonal of the full one
				}
				v := raw.At(i, j)/nk - mu[i]*mu[j]
				if i == j {
					v += regEps
				}
				cov.Set(i, j, v)
				cov.Set(j, i, v)
			}
		}
		out.Covs[c] = cov
	}
	return out, nil
}
