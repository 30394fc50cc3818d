package stream

import (
	"fmt"

	"factorml/internal/core"
	"factorml/internal/factor"
	"factorml/internal/gmm"
	"factorml/internal/join"
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

// Footprint is what one model's maintained statistics hold.
type Footprint struct {
	Rows  int64 `json:"rows"`  // fact rows absorbed
	Bytes int64 `json:"bytes"` // retained by the sums, their origin and the pass index
}

// GMMStats is the maintained sufficient statistics of one attached
// mixture: gmm.Moments over the whole joined row (the one-part partition),
// about the model's means at attach or rebaseline. Their size is fixed by
// K and D, whatever the number of rows or dimension tuples. The sums of
// complete chunks and of the trailing partial one are kept apart (see the
// package comment). Scoring runs over the factorized trainers' partition
// (fact part, one part per DIRECT dimension; a group is a direct dimension
// tuple with its subtree's features appended), with per-pass caches.
type GMMStats struct {
	rv   *join.Resolver
	p    core.Partition // the scoring partition: fact part, then one part per direct dimension, as wide as its subtree
	k    int
	diag bool

	rows       int64        // fact rows absorbed
	done, open *gmm.Moments // over the complete chunks; over the trailing partial one
	// slots[d] holds the running pass's scoring caches of direct dimension
	// d's groups, a row per group the pass met, in first-reference order:
	// its features, then K × (PD, CrossS). Between passes only the index
	// is kept.
	slots []factor.Slots
}

// NewGMMStats builds empty statistics about m's means over the hierarchy rv
// resolves, below a fact relation of dS features.
func NewGMMStats(rv *join.Resolver, dS int, m *gmm.Model) *GMMStats {
	st := &GMMStats{rv: rv, k: m.K, diag: m.Diagonal}
	dims := []int{dS}
	for _, n := range rv.Direct() {
		dims = append(dims, rv.SubtreeWidth(n))
	}
	st.p = core.NewPartition(dims)
	joined := core.NewPartition([]int{st.p.D})
	st.done, st.open = gmm.NewMoments(joined, m.K, m.Diagonal), gmm.NewMoments(joined, m.K, m.Diagonal)
	st.slots = make([]factor.Slots, rv.NumDirect())
	for d := range st.slots {
		w := st.p.Dims[1+d]
		st.slots[d].Width = w + m.K*(w+dS)
	}
	st.Reset(m)
	return st
}

// Rows returns how many fact rows have been absorbed.
func (st *GMMStats) Rows() int64 { return st.rows }

// LogLikelihood returns the accumulated data log-likelihood (each row's
// contribution is as of its absorb-time model).
func (st *GMMStats) LogLikelihood() float64 { return st.done.LL() + st.open.LL() }

// Footprint reports the statistics' size.
func (st *GMMStats) Footprint() Footprint {
	fp := Footprint{Rows: st.rows, Bytes: int64(16 * (len(st.done.Data()) + len(st.done.Origin())))} // done and open
	for d := range st.slots {
		fp.Bytes += st.slots[d].IndexBytes()
	}
	return fp
}

// Reset drops every absorbed row and takes m's means as the origin (the
// rebaseline path).
func (st *GMMStats) Reset(m *gmm.Model) {
	st.rows = 0
	st.done.Reset(m.Means)
	st.open.Reset(m.Means)
}

// absorbChunk is one chunk of the statistics pass.
type absorbChunk struct {
	n      int
	xs     []float64    // n×dS fact features
	cidx   []int32      // n×q the row's groups' positions in the pass's dimension caches
	gamma  []float64    // n×K responsibilities
	x      []float64    // one joined row
	pd     []float64    // devRows joined rows' K deviations about the origin, formed per fold
	rows   *gmm.Moments // the absolute chunk's sums up to this chunk's last row
	sc     *gmm.ScoreScratch
	caches [][]core.QuadCache // the current row's scoring caches per direct dimension
}

// devRows is how many joined rows' deviations a worker forms per fold.
const devRows = 32

// Absorb scores fact rows [Rows(), fact.NumTuples()) under model and folds
// them in, in time proportional to that range: the scan resolves each
// row's direct dimension tuples, cuts chunks at absolute row boundaries and
// fills a tuple's scoring caches when the pass first meets it, so a delta
// pays one fill per distinct tuple; workers score each chunk through the
// factorized kernel, then form each joined row's deviations about the
// origin (the fact features, then each direct group's from the pass's
// caches) and fold them as M- and S-GMM fold their joined rows; the merge, in chunk
// order, only adds complete chunks to the done sums. Deviations are about
// the origin, not model's means, so rows absorbed under different refresh
// generations add up; any batch split and worker count gives the same bits.
//
// A row is folded with the group features it is absorbed under: a
// dimension update marks the statistics dirty, so they are rebaselined
// before the next Step.
func (st *GMMStats) Absorb(model *gmm.Model, fact *storage.Table, workers int) error {
	k, q, dS, D := st.k, len(st.slots), st.p.Dims[0], st.p.D
	if model.K != k || model.D != st.p.D || model.Diagonal != st.diag {
		return fmt.Errorf("stream: model (K=%d, D=%d, diagonal %v) does not match statistics (K=%d, D=%d, diagonal %v)",
			model.K, model.D, model.Diagonal, k, st.p.D, st.diag)
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
	origin := st.done // read throughout: a pass writes no origin

	// At most one new group per row and dimension: the caches' cost follows
	// the delta, not the dimension tables. qc[d] is K QuadCaches per
	// position of slots[d], viewing its row.
	qc := make([][]core.QuadCache, q)
	for d := range qc {
		groups := st.rv.Idxs[st.rv.Direct()[d]].Len()
		n := int(min(r1-r0, int64(groups)))
		st.slots[d].Reset(groups, n)
		qc[d] = make([]core.QuadCache, n*k)
	}
	defer func() {
		for d := range st.slots {
			st.slots[d].Drop()
		}
	}()

	// fresh lists the groups the chunk being cut met first; fill computes
	// their caches (disjoint positions, so it runs on the pool) before the
	// chunk is handed to a worker.
	type cachePos struct{ d, at int }
	var fresh []cachePos
	fill := func(a, b int) error {
		for _, f := range fresh[a:b] {
			w, pos := st.p.Dims[1+f.d], st.slots[f.d].Row(f.at)
			run := qc[f.d][f.at*k : (f.at+1)*k]
			for c := range run {
				o := w + c*(w+dS)
				run[c].PD, run[c].CrossS = pos[o:o+w:o+w], pos[o+w:o+w+dS:o+w+dS]
			}
			scorer.FillDimCaches(run, 1+f.d, pos[:w], nil)
		}
		return nil
	}

	newChunk := func() *absorbChunk {
		return &absorbChunk{
			xs:     make([]float64, StatChunkRows*dS),
			cidx:   make([]int32, StatChunkRows*q),
			gamma:  make([]float64, StatChunkRows*k),
			x:      make([]float64, D),
			pd:     make([]float64, devRows*k*D),
			rows:   gmm.NewMoments(core.NewPartition([]int{D}), k, st.diag),
			sc:     scorer.NewScratch(),
			caches: make([][]core.QuadCache, q),
		}
	}
	produce := func(f *parallel.Feed[*absorbChunk]) error {
		sc := fact.NewScanner()
		if err := sc.SeekRow(r0); err != nil {
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
					cur.rows.Add(st.open)
				}
			}
			t := sc.Tuple()
			copy(cur.xs[cur.n*dS:(cur.n+1)*dS], t.Features)
			for d := 0; d < q; d++ {
				n := st.rv.Direct()[d]
				ix := st.rv.Idxs[n]
				g, ok := ix.Pos(t.Keys[1+d])
				if !ok {
					return fmt.Errorf("stream: fact row %d (sid %d): unknown foreign key %d for dimension table %q",
						row, t.PrimaryKey(), t.Keys[1+d], ix.Name())
				}
				at, first := st.slots[d].Touch(g)
				if first {
					// The group's features: the tuple's own, then its
					// subtree's in plan order, following the sub-keys as they
					// are pinned NOW (a repoint shows in the next fill).
					if err := st.rv.Subtree(n, g, st.slots[d].Row(at)[:st.p.Dims[1+d]], nil); err != nil {
						return fmt.Errorf("stream: fact row %d (sid %d): %w", row, t.PrimaryKey(), err)
					}
					fresh = append(fresh, cachePos{d, at})
				}
				cur.cidx[cur.n*q+d] = int32(at)
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
				c.caches[d] = qc[d][at*k : (at+1)*k]
			}
			gamma := c.gamma[i*k : (i+1)*k]
			c.rows.AddLL(scorer.Responsibilities(c.xs[i*dS:(i+1)*dS], c.caches, c.sc, gamma))
		}
		for r := 0; r < c.n; r += devRows {
			nb := min(devRows, c.n-r)
			for i := r; i < r+nb; i++ {
				x := c.x[copy(c.x, c.xs[i*dS:(i+1)*dS]):]
				for d := range st.slots {
					x = x[copy(x, st.slots[d].Row(int(c.cidx[i*q+d]))[:st.p.Dims[1+d]]):]
				}
				origin.Deviations(c.pd[(i-r)*k*D:(i-r+1)*k*D], c.x)
			}
			c.rows.FoldRows(c.gamma[r*k:], c.pd, nb)
		}
		return c, nil
	}
	merge := func(c *absorbChunk) error {
		st.open.Zero()
		if st.rows += int64(c.n); st.rows%StatChunkRows == 0 {
			st.done.Add(c.rows)
		} else {
			st.open.Add(c.rows)
		}
		c.rows.Zero()
		return nil
	}
	return parallel.Run(nw, produce, work, merge)
}

// Step runs the trainers' M-step over the statistics and returns the
// refreshed model; prev supplies the structure and the parameters of
// collapsed components. It adds the done and open sums and steps them: a
// pure function of the absorbed rows, in time fixed by K and D.
func (st *GMMStats) Step(prev *gmm.Model) (*gmm.Model, error) {
	n := st.Rows()
	if n == 0 {
		return nil, fmt.Errorf("stream: no absorbed rows to refresh from")
	}
	total := st.done.Clone()
	total.Add(st.open)
	out := prev.Clone()
	total.Step(out, int(n))
	return out, nil
}
