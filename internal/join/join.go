package join

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"factorml/internal/storage"
)

// DefaultBlockPages is the block-nested-loops block size (in pages of the
// first dimension table) when a Spec leaves BlockPages at zero.
const DefaultBlockPages = 64

// Spec describes a join between a fact table S and a flattened hierarchy of
// dimension tables R1…Rq — a one-hop star, or an arbitrary-depth snowflake.
//
// S's key columns must be [sid, fk1, …, fkp] with one foreign key per
// *direct* dimension table. Rs lists every reachable dimension relation in
// depth-first preorder (each direct dimension followed by its whole
// subtree); Parent and Ref record, per relation, where its foreign key
// lives — see DimPlan for the exact contract. Leaving Parent and Ref nil
// selects the classic star layout: every Rs[i] is keyed directly off the
// fact tuple's i-th foreign key.
//
// Every fk must resolve (joins are primary/foreign-key, so the join is
// lossless on S); a dangling fk at any hop skips the fact tuple
// (inner-join semantics), exactly as the flattened/materialized join would.
//
// The Runner resolves sub-dimension hops once per dimension tuple, not once
// per fact tuple, so the join the callbacks see is a star over the direct
// dimensions (see the package comment).
type Spec struct {
	S  *storage.Table
	Rs []*storage.Table

	// Parent and Ref are the snowflake resolution edges (nil = one-hop
	// star): Parent[i] is -1 when Rs[i] is keyed off the fact tuple, else
	// the index of the relation whose tuple carries the key (always < i);
	// Ref[i] is the 0-based foreign-key position within that tuple's key
	// columns (key column 1+Ref[i]).
	Parent []int
	Ref    []int

	// BlockPages is the number of pages of Rs[0] loaded per block of the
	// block-nested-loops join. Zero selects DefaultBlockPages. This is the
	// only place a block size is set: every access path over the spec —
	// Materialize, Stream, the factorized match stream — cuts its blocks by
	// it, and plan.Collect records it in SchemaStats so the planner prices
	// the same number of fact-table rescans the join will make. No trainer
	// configuration carries a second copy.
	BlockPages int
}

// edges returns the resolution edges, materializing the one-hop star
// defaults when the spec leaves Parent/Ref nil.
func (sp *Spec) edges() (parent, ref []int) {
	if sp.Parent != nil || sp.Ref != nil {
		return sp.Parent, sp.Ref
	}
	parent = make([]int, len(sp.Rs))
	ref = make([]int, len(sp.Rs))
	for i := range sp.Rs {
		parent[i] = -1
		ref[i] = i
	}
	return parent, ref
}

// Plan returns the spec's dimension plan with the resolution edges
// materialized (the one-hop defaults when Parent/Ref are nil).
func (sp *Spec) Plan() *DimPlan {
	parent, ref := sp.edges()
	return &DimPlan{Tables: sp.Rs, Parent: parent, Ref: ref}
}

// Validate checks the spec's structural invariants.
func (sp *Spec) Validate() error {
	if sp.S == nil {
		return fmt.Errorf("join: spec has no fact table")
	}
	if len(sp.Rs) == 0 {
		return fmt.Errorf("join: spec has no dimension tables")
	}
	if (sp.Parent == nil) != (sp.Ref == nil) || (sp.Parent != nil && (len(sp.Parent) != len(sp.Rs) || len(sp.Ref) != len(sp.Rs))) {
		return fmt.Errorf("join: spec has %d relations but %d parent / %d ref edges",
			len(sp.Rs), len(sp.Parent), len(sp.Ref))
	}
	parent, ref := sp.edges()
	// Children must follow their parent (preorder) and claim its foreign
	// keys in order, so the flattened layout is deterministic and the
	// Runner can resolve left to right.
	nextRef := make([]int, 1+len(sp.Rs)) // nextRef[0] = fact, nextRef[1+i] = Rs[i]
	for i, r := range sp.Rs {
		if r == nil {
			return fmt.Errorf("join: dimension table %d is nil", i)
		}
		if r.Schema().HasTarget {
			return fmt.Errorf("join: dimension table %q must not carry a target", r.Schema().Name)
		}
		p := parent[i]
		if p < -1 || p >= i {
			return fmt.Errorf("join: dimension table %q (relation %d) has parent %d, want -1 or an earlier relation",
				r.Schema().Name, i, p)
		}
		if got, want := ref[i], nextRef[1+p]; got != want {
			return fmt.Errorf("join: dimension table %q (relation %d) claims foreign key %d of its parent, want %d (preorder, key order)",
				r.Schema().Name, i, got, want)
		}
		nextRef[1+p]++
	}
	if got, want := sp.S.Schema().NumKeys(), 1+nextRef[0]; got != want {
		return fmt.Errorf("join: fact table %q has %d key columns, want %d (sid + %d fks)",
			sp.S.Schema().Name, got, want, nextRef[0])
	}
	for i, r := range sp.Rs {
		if got, want := r.Schema().NumKeys(), 1+nextRef[1+i]; got != want {
			return fmt.Errorf("join: dimension table %q has %d key columns, want %d (rid + %d sub-dimension fks)",
				r.Schema().Name, got, want, nextRef[1+i])
		}
	}
	return nil
}

// NewSnowflakeSpec builds a validated spec over fact by expanding the
// direct dimension tables' recorded sub-dimension references
// (storage.Schema.Refs) through lookup. This is the catalog-driven path
// used by cmd/train and the serving facade; callers holding an explicit
// hierarchy can construct a DimPlan directly.
func NewSnowflakeSpec(fact *storage.Table, direct []*storage.Table, lookup func(name string) (*storage.Table, error)) (*Spec, error) {
	pl, err := ExpandDims(direct, lookup)
	if err != nil {
		return nil, err
	}
	sp := pl.Spec(fact)
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

func (sp *Spec) blockPages() int {
	if sp.BlockPages <= 0 {
		return DefaultBlockPages
	}
	return sp.BlockPages
}

// JoinedWidth returns the feature dimensionality of the join result:
// dS + Σ dRi.
func (sp *Spec) JoinedWidth() int {
	d := sp.S.Schema().NumFeatures()
	for _, r := range sp.Rs {
		d += r.Schema().NumFeatures()
	}
	return d
}

// DirectWidths returns the feature width of every direct dimension's
// subtree, in foreign-key order — the width of the Runner's arena rows, and
// with the fact width in front the partition the factorized trainers
// compute over.
func (sp *Spec) DirectWidths() []int {
	parent, _ := sp.edges()
	var w []int
	for i, r := range sp.Rs {
		if parent[i] == -1 {
			w = append(w, 0)
		}
		w[len(w)-1] += r.Schema().NumFeatures()
	}
	return w
}

// Arena is one direct dimension's tuples as the Runner holds them: N rows
// of Width features, flat in Feats. A row is the tuple's own features
// followed by its subtree's, in the spec's preorder, so fact ++ one row
// per direct dimension is the joined row.
type Arena struct {
	N, Width int
	Feats    []float64
}

// Row returns row i, a view into the arena. Do not modify it.
func (a Arena) Row(i int) []float64 { return a.Feats[i*a.Width : (i+1)*a.Width : (i+1)*a.Width] }

// Callbacks receives the join stream.
//
// OnBlockStart is called once per block of Rs[0] with one arena per direct
// dimension, in foreign-key order: dims[0] holds the block's tuples and is
// valid until the next OnBlockStart; dims[j] (j ≥ 1) holds direct dimension
// j's resident tuples and stays the same for the whole run.
//
// OnMatch is called for every joined tuple in deterministic order: for each
// block (R1 append order), S scan order. pos[j] is the row of the fact
// tuple's partner in dims[j]. The s tuple and pos are only valid for the
// duration of the call.
type Callbacks struct {
	OnBlockStart func(dims []Arena) error
	OnMatch      func(s *storage.Tuple, pos []int) error
	OnBlockEnd   func() error
}

// Runner executes a block-nested-loops join over a star or snowflake spec.
// A runner is one of three shapes of the same match stream, which differ in
// what RunParallel hands its callbacks:
//
//   - NewRunner: every direct dimension factorized — a match is the fact
//     tuple and one arena row per direct dimension (the F-* algorithms);
//   - NewGatherRunner: no dimension factorized — each match's dimension rows
//     are gathered into its fact part, so a match is its joined row with no
//     arena rows (the S-* algorithms);
//   - NewMaterializedRunner: the same over a materialized T, which it reads
//     back instead of joining (the M-* algorithms).
//
// Run delivers the joined rows of all three alike (AppendRow).
type Runner struct {
	spec *Spec
	rv   *Resolver // over the spec's relations, built by the first pass; node 0's index holds no tuples
	dims []Arena   // dims[0]: the current R1 block; dims[j]: direct dimension j, loaded once
	at   [][]int32 // at[j][ordinal]: the tuple's row in dims[j], −1 when a hop below it dangles; nil: the identity
	perm []int64   // optional R1 row permutation (SGD epochs, §VI)

	blockIdx map[int64]int // R1 key -> row of dims[0], cleared per block
	blockPks []int64       // per place in the block: its tuple's key
	blockOK  []bool        // and whether its subtree resolved

	gather bool // RunParallel gathers every match's arena rows into its fact part

	// A runner over a materialized T: spec.S is T, there are no dimensions
	// and no probe, and block i is the next counts[i] rows of one sequential
	// scan of T — the R1 blocks the materializer recorded, empty ones
	// included.
	materialized bool
	counts       []int64
}

// NewRunner prepares a runner for the spec that factorizes every direct
// dimension.
func NewRunner(spec *Spec) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Runner{spec: spec}, nil
}

// NewGatherRunner prepares a runner for the spec that factorizes no
// dimension: RunParallel's matches carry their joined rows, over the
// one-part partition.
func NewGatherRunner(spec *Spec) (*Runner, error) {
	r, err := NewRunner(spec)
	if err == nil {
		r.gather = true
	}
	return r, err
}

// NewMaterializedRunner returns a runner that reads back t, a join
// Materialize wrote with its per-block counts: the same joined rows, in the
// same blocks, with no dimension factorized and no probe.
func NewMaterializedRunner(t *storage.Table, counts []int64) *Runner {
	return &Runner{spec: &Spec{S: t}, materialized: true, counts: counts}
}

// Shuffle installs a permutation of R1's rows used by subsequent Runs —
// the paper's per-epoch permutation of R's keys for SGD training (§VI):
// "we can permute the keys of R for each training epoch, accessing the
// keys in a different order per epoch while probing relation S". Permuted
// access is random I/O into R1: the pass's one R1 scanner seeks each row
// of a block in file order and reads each page the block touches once.
// Pass nil to restore sequential order.
func (r *Runner) Shuffle(rng *rand.Rand) {
	if rng == nil {
		r.perm = nil
		return
	}
	n := r.spec.Rs[0].NumTuples()
	if int64(len(r.perm)) != n {
		r.perm = make([]int64, n)
		for i := range r.perm {
			r.perm[i] = int64(i)
		}
	}
	rng.Shuffle(len(r.perm), func(i, j int) { r.perm[i], r.perm[j] = r.perm[j], r.perm[i] })
}

// AppendRow appends one match's joined row to dst: the fact tuple's
// features, then its partner's row in every direct dimension — the spec's
// preorder layout.
func (r *Runner) AppendRow(dst []float64, s *storage.Tuple, pos []int) []float64 {
	dst = append(dst, s.Features...)
	for j, at := range pos {
		dst = append(dst, r.dims[j].Row(at)...)
	}
	return dst
}

// load pins Rs[1:] in resident indexes, one per distinct table
// (DimPlan.BuildIndexes), and copies each resident direct dimension's
// tuples with their subtrees (Resolver.Subtree's walk) into its arena; a leaf
// dimension's arena is its index's feature arena. A tuple a hop below which
// dangles gets no row: no fact tuple can join through it. R1's node gets an
// index that holds no tuples — R1 is read in blocks, every pass — so the
// resolver knows its shape.
func (r *Runner) load() error {
	if r.rv != nil || r.materialized {
		return nil
	}
	sp := r.spec
	idxs, err := (&DimPlan{Tables: sp.Rs[1:]}).BuildIndexes(nil)
	if err != nil {
		return err
	}
	r1 := sp.Rs[0].Schema()
	idxs = slices.Insert(idxs, 0, &ResidentIndex{name: r1.Name, width: r1.NumFeatures(), nrefs: r1.NumKeys() - 1})
	parent, ref := sp.edges()
	rv, err := NewResolver(parent, ref, idxs)
	if err != nil {
		return err
	}
	widths := sp.DirectWidths()
	r.dims = make([]Arena, len(widths))
	r.at = make([][]int32, len(widths))
	for j, n := range rv.Direct()[1:] {
		ix, a := idxs[n], Arena{Width: widths[1+j]}
		if rv.SubtreeEnd(n) == n+1 {
			a.N, a.Feats = len(ix.vers), ix.feats
		} else {
			a.Feats = make([]float64, len(ix.vers)*a.Width)
			at := make([]int32, len(ix.vers))
			for o := range at {
				at[o] = -1
				if bad, _ := rv.walk(n, o, nil, a.Row(a.N), nil); bad < 0 {
					at[o] = int32(a.N)
					a.N++
				}
			}
			a.Feats = a.Feats[:a.N*a.Width]
			r.at[1+j] = at
		}
		r.dims[1+j] = a
	}
	r.dims[0].Width = widths[0]
	r.rv = rv
	return nil
}

// forEachBlock loads consecutive R1 blocks — sequential scan, or installed
// permutation — into dims[0] and its key index, and invokes fn once per
// block with the block's fact scan: a fresh scan of S, or on a materialized
// runner the next n rows of the one scan of T (n is unbounded on a join).
// Each R1 tuple's subtree is resolved as it is read (Resolver.walk); a
// tuple whose subtree dangles is left out. The arena,
// the key index and the per-place slices are the runner's, reused between
// blocks and passes; fn must be done with them when it returns. Run and
// RunParallel both drive their passes through this iterator, so the two
// access paths share one block geometry (and hence one deterministic match
// order).
//
// A single scanner over R1 reads each of its pages exactly once per pass,
// matching the |R| term of the paper's block-nested-loops cost model. With
// a shuffle installed, a block holds its slice of the permutation in
// permuted order, and the same scanner fetches those rows in file order,
// seeking from row to row: each page a block touches is read once per
// block, not once per row.
func (r *Runner) forEachBlock(fn func(sc *storage.Scanner, n int64) error) error {
	sp := r.spec
	if r.materialized {
		sc := sp.S.NewScanner()
		for _, n := range r.counts {
			if err := fn(sc, n); err != nil {
				return err
			}
		}
		return nil
	}
	r1 := sp.Rs[0]
	perPage := int64(r1.Schema().RecordsPerPage())
	tuplesPerBlock := int64(sp.blockPages()) * perPage
	nR1 := r1.NumTuples()

	blk := &r.dims[0]
	if rows := int(min(tuplesPerBlock, nR1)); len(r.blockPks) < rows {
		r.blockIdx = make(map[int64]int, rows)
		r.blockPks, r.blockOK = make([]int64, rows), make([]bool, rows)
		blk.Feats = make([]float64, rows*blk.Width)
	}
	w1 := r1.Schema().NumFeatures()
	r1Scan := r1.NewScanner()
	// read reads R1's next tuple into place i of the block: its features,
	// then its subtree's.
	read := func(row int64, i int) error {
		if !r1Scan.Next() {
			if err := r1Scan.Err(); err != nil {
				return err
			}
			return fmt.Errorf("join: dimension table %q ended early at row %d", r1.Schema().Name, row)
		}
		tp, x := r1Scan.Tuple(), blk.Row(i)
		copy(x, tp.Features)
		r.blockPks[i] = tp.PrimaryKey()
		bad, _ := r.rv.walk(0, -1, tp.Keys[1:], x[w1:], nil)
		r.blockOK[i] = bad < 0
		return nil
	}
	var order []int64 // a shuffled block's row·tuplesPerBlock + place in block, in file order
	for start := int64(0); start < nR1; start += tuplesPerBlock {
		end := min(start+tuplesPerBlock, nR1)
		n := int(end - start)
		if r.perm == nil {
			for i := range n {
				if err := read(start+int64(i), i); err != nil {
					return err
				}
			}
		} else {
			order = order[:0]
			for i, row := range r.perm[start:end] {
				order = append(order, row*tuplesPerBlock+int64(i))
			}
			slices.Sort(order)
			for _, o := range order {
				row := o / tuplesPerBlock
				if err := r1Scan.SeekRow(row); err != nil {
					return err
				}
				if err := read(row, int(o%tuplesPerBlock)); err != nil {
					return err
				}
			}
		}
		// Leave out the tuples whose subtree dangles; index the rest.
		clear(r.blockIdx)
		blk.N = 0
		for i := range n {
			if !r.blockOK[i] {
				continue
			}
			if blk.N != i {
				copy(blk.Row(blk.N), blk.Row(i))
			}
			r.blockIdx[r.blockPks[i]] = blk.N
			blk.N++
		}
		if err := fn(sp.S.NewScanner(), math.MaxInt64); err != nil {
			return err
		}
	}
	return nil
}

// probe resolves one fact tuple against the direct dimensions, one lookup
// each: the first one's row within the current block, every other one's
// row within its arena, found through its index's ordinal. It reports
// false when the fact tuple's R1 key belongs to another block or a key
// finds no row — a dangling key, or a dimension tuple left out because a
// hop below it dangles (inner-join semantics) — and fills pos on success.
// The indexes are the runner's own and never upserted, so the probe reads
// them without their lock.
func (r *Runner) probe(s *storage.Tuple, pos []int) bool {
	i, ok := r.blockIdx[s.Keys[1]]
	if !ok {
		return false
	}
	pos[0] = i
	for j := 1; j < len(pos); j++ {
		o, ok := r.rv.Idxs[r.rv.direct[j]].find(s.Keys[1+j])
		if !ok {
			return false
		}
		if at := r.at[j]; at != nil {
			if o = int(at[o]); o < 0 {
				return false
			}
		}
		pos[j] = o
	}
	return true
}

// Run executes the join, invoking the callbacks. It may be called multiple
// times (e.g. once per EM pass); each call re-reads R1 and S, which is
// exactly the repeated I/O the paper's cost model charges, while the
// resident dimensions load once per runner.
func (r *Runner) Run(cb Callbacks) error {
	if err := r.load(); err != nil {
		return err
	}
	pos := make([]int, len(r.dims))
	return r.forEachBlock(func(sc *storage.Scanner, n int64) error {
		if cb.OnBlockStart != nil {
			if err := cb.OnBlockStart(r.dims); err != nil {
				return err
			}
		}
		if cb.OnMatch != nil {
			for ; n > 0 && sc.Next(); n-- {
				s := sc.Tuple()
				if !r.materialized && !r.probe(s, pos) {
					continue
				}
				if err := cb.OnMatch(s, pos); err != nil {
					return err
				}
			}
			if err := sc.Err(); err != nil {
				return err
			}
		}
		if cb.OnBlockEnd != nil {
			return cb.OnBlockEnd()
		}
		return nil
	})
}
