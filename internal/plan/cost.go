package plan

import (
	"factorml/internal/core"
	"factorml/internal/join"
	"factorml/internal/storage"
)

// A flop estimate is the event counts this file predicts from the catalog
// — fact rows as joined rows and matches, each direct dimension's rows as
// its fills and flushes, the R1 block count as a Block-mode network's
// resident refills, iterations and epochs as passes — × internal/core's
// per-event units (core/cost.go: the one place a kernel's formula is
// written, and what the trainers multiply by the events they see). What an
// estimate can get wrong is therefore a count — dangling keys, early
// convergence — never a formula. The I/O model is the paper's
// block-nested-loops accounting: each pass reads R1 once and rescans S once
// per R1 block; Materialized pays one join plus writing T, then reads T per
// pass. Every one of those pages is a sequential scan that reads the file
// once, so the page counts are exact, not pessimistic. The one pass this
// model does not price is a shuffled SGD epoch (nn.Config.ShuffleSeed): its
// R1 scanner seeks each block's share of the permutation in file order, so
// it reads every page a block touches once per block — up to |R1| pages
// per block rather than per pass. (Storage used to count one read per
// permuted row, served by a page cache; there is no cache now.)

// shape extracts the quantities the estimate needs. The factorized parts
// are the direct dimensions: each as wide as its whole subtree (the join
// runner appends a dimension tuple's sub-dimension features once per
// tuple), with the direct relation's row count.
type shape struct {
	n int64          // fact rows
	p core.Partition // fact part, then one part per direct dimension
	m []int64        // per-direct-dimension row counts
}

func (ss *SchemaStats) shape() shape {
	sh := shape{n: ss.Fact.Stats.Rows}
	w := []int{ss.Fact.Stats.Width}
	for i, r := range ss.Dims {
		if ss.Parent == nil || ss.Parent[i] == -1 {
			w = append(w, 0)
			sh.m = append(sh.m, r.Stats.Rows)
		}
		w[len(w)-1] += r.Stats.Width
	}
	sh.p = core.NewPartition(w)
	return sh
}

// estimateOps prices the training-math flops of one full training run:
// units × the events predicted for one pass, × passes. Every fact row is
// one match; Factorized prices it over the fact part and the direct
// dimensions, whose tuples it fills and flushes — the reuse fan-out buys —
// while M- and S- factorize nothing and price it over the one-part
// partition, with no tuple events (they differ only in I/O).
func estimateOps(ss *SchemaStats, m ModelSpec, s Strategy) core.Ops {
	sh := ss.shape()
	p, tuples := sh.p, sh.m
	if s != Factorized {
		p, tuples = core.NewPartition([]int{sh.p.D}), nil
	}
	var pass core.Ops
	switch m.Family {
	case FamilyGMM:
		// Every dimension tuple is filled and flushed once per iteration.
		u := core.NewGMMUnits(p, m.K, m.Diagonal)
		pass = u.Match.Scale(sh.n)
		for i, mi := range tuples {
			pass.Add(u.Fill[1+i].Plus(u.Flush[1+i]).Scale(mi))
		}
		return pass.Scale(int64(m.Iters))
	case FamilyNN:
		// R1 tuples fill once per epoch (each belongs to one block);
		// resident relations refill per block under Block-mode updates,
		// once per epoch otherwise. Each fill is flushed once: R1's at its
		// block end, a resident relation's at the step.
		refills := int64(1)
		if m.BlockMode {
			refills = ss.numBlocks()
		}
		u := core.NewNNUnits(p, append(append([]int{p.D}, m.Hidden...), 1))
		pass = u.Match.Scale(sh.n)
		for i, mi := range tuples {
			if i > 0 {
				mi *= refills
			}
			pass.Add(u.Fill[1+i].Plus(u.Flush[1+i]).Scale(mi))
		}
		return pass.Scale(int64(m.Epochs))
	}
	return pass
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
	// The join pins each resident table once, however many hierarchy
	// positions it holds (join.DimPlan.BuildIndexes).
	pinned := make(map[string]int64)
	for _, r := range ss.Dims[1:] {
		pinned[r.Name] = r.Stats.Pages
	}
	resident := int64(0)
	for _, pages := range pinned {
		resident += pages
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
