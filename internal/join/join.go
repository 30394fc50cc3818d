package join

import (
	"fmt"
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
// per fact tuple: a sub-dimension tuple is functionally determined by its
// parent tuple, so every dimension tuple is loaded with its whole subtree's
// features appended (preorder), and the join the callbacks see is a star
// over the direct dimensions — one probe and one index per direct
// dimension, whatever the depth below it.
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
// subtree, in foreign-key order — the width of the tuples the Runner
// delivers, and with the fact width in front the partition the factorized
// trainers compute over.
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

// Callbacks receives the join stream.
//
// OnBlockStart is called once per block of Rs[0] with the block's tuples.
// Block slices are valid until the next OnBlockStart; the resident tuples
// of the other direct dimensions (Runner.Resident) stay valid for the whole
// run. Every dimension tuple carries its subtree's features appended, so
// fact ++ block tuple ++ resident tuples is the joined row.
//
// OnMatch is called for every joined tuple in deterministic order: for each
// block (R1 append order), S scan order. r1Idx indexes into the current
// block's tuples; resIdx[i] indexes into Resident(i), the tuples of direct
// dimension 1+i. The s tuple is only valid for the duration of the call.
type Callbacks struct {
	OnBlockStart func(block []*storage.Tuple) error
	OnMatch      func(s *storage.Tuple, r1Idx int, resIdx []int) error
	OnBlockEnd   func() error
}

// Runner executes a block-nested-loops join over a star or snowflake spec.
type Runner struct {
	spec     *Spec
	parent   []int              // resolution edges (see Spec.Parent)
	ref      []int              // resolution edges (see Spec.Ref)
	children [][]int            // relations keyed off relation i's tuples, in key order
	rel      [][]*storage.Tuple // Rs[1:] fully loaded, subtrees appended; rel[0] unused
	relIndex []map[int64]int    // rid -> index into rel[i]
	resident [][]*storage.Tuple // rel/relIndex of the direct dimensions after Rs[0]
	resIndex []map[int64]int
	hops     int64 // sub-dimension references resolved so far
	loaded   bool
	perm     []int64       // optional R1 row permutation (SGD epochs, §VI)
	blockIdx map[int64]int // forEachBlock's key index, cleared per block
}

// NewRunner prepares a runner for the spec.
func NewRunner(spec *Spec) (*Runner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r := &Runner{spec: spec, children: make([][]int, len(spec.Rs))}
	r.parent, r.ref = spec.edges()
	for i, p := range r.parent {
		if p >= 0 {
			r.children[p] = append(r.children[p], i)
		}
	}
	return r, nil
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

// Resident returns the loaded tuples of direct dimension 1+i (Resident(0)
// is the second direct dimension), each with its subtree's features
// appended. It is only available after Run has started; the slices are
// shared, do not modify.
func (r *Runner) Resident(i int) []*storage.Tuple { return r.resident[i] }

// AppendRow appends one match's joined row to dst: the fact tuple's
// features, its block tuple's, then each resident partner's — every
// dimension tuple carrying its subtree, which makes this the spec's
// preorder layout.
func (r *Runner) AppendRow(dst []float64, s, r1 *storage.Tuple, resIdx []int) []float64 {
	dst = append(dst, s.Features...)
	dst = append(dst, r1.Features...)
	for j, ri := range resIdx {
		dst = append(dst, r.resident[j][ri].Features...)
	}
	return dst
}

// withSubtree appends to tp, a tuple of relation i, the features of the
// sub-dimension tuples its foreign keys reference — each already carrying
// its own subtree, so the result is the preorder layout of the whole
// subtree below tp. It reports false when a reference dangles.
func (r *Runner) withSubtree(i int, tp *storage.Tuple) bool {
	for _, c := range r.children[i] {
		ci, ok := r.relIndex[c][tp.Keys[1+r.ref[c]]]
		if !ok {
			return false
		}
		tp.Features = append(tp.Features, r.rel[c][ci].Features...)
		r.hops++
	}
	return true
}

// loadResident loads Rs[1:], last relation first: preorder puts every
// sub-dimension after its parent, so a relation's children are complete
// when its own tuples resolve their hops. A tuple whose reference dangles
// is left out — no fact tuple can join through it.
func (r *Runner) loadResident() error {
	if r.loaded {
		return nil
	}
	rs := r.spec.Rs
	r.rel = make([][]*storage.Tuple, len(rs))
	r.relIndex = make([]map[int64]int, len(rs))
	for i := len(rs) - 1; i >= 1; i-- {
		tbl := rs[i]
		tuples := make([]*storage.Tuple, 0, tbl.NumTuples())
		idx := make(map[int64]int, tbl.NumTuples())
		sc := tbl.NewScanner()
		for sc.Next() {
			tp := sc.Tuple().Clone()
			if !r.withSubtree(i, tp) {
				continue
			}
			idx[tp.PrimaryKey()] = len(tuples)
			tuples = append(tuples, tp)
		}
		if err := sc.Err(); err != nil {
			return err
		}
		r.rel[i], r.relIndex[i] = tuples, idx
	}
	for i := 1; i < len(rs); i++ {
		if r.parent[i] == -1 {
			r.resident = append(r.resident, r.rel[i])
			r.resIndex = append(r.resIndex, r.relIndex[i])
		}
	}
	r.loaded = true
	return nil
}

// forEachBlock loads consecutive R1 blocks — sequential scan, or installed
// permutation — and invokes fn once per block with the block's tuples
// (subtrees appended; a tuple whose sub-reference dangles is left out) and
// its key index. The slice is reused between blocks and the map between
// blocks and passes (its buckets are allocated once per runner, not once
// per pass); fn must be done with them when it returns. Run and
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
func (r *Runner) forEachBlock(fn func(block []*storage.Tuple, blockIdx map[int64]int) error) error {
	sp := r.spec
	r1 := sp.Rs[0]
	perPage := int64(r1.Schema().RecordsPerPage())
	tuplesPerBlock := int64(sp.blockPages()) * perPage
	nR1 := r1.NumTuples()

	block := make([]*storage.Tuple, 0, tuplesPerBlock)
	if r.blockIdx == nil {
		r.blockIdx = make(map[int64]int, tuplesPerBlock)
	}
	blockIdx := r.blockIdx

	r1Scan := r1.NewScanner()
	next := func(row int64) (*storage.Tuple, error) {
		if !r1Scan.Next() {
			if err := r1Scan.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("join: dimension table %q ended early at row %d", r1.Schema().Name, row)
		}
		return r1Scan.Tuple().Clone(), nil
	}
	var order []int64 // a shuffled block's row·tuplesPerBlock + place in block, in file order
	for start := int64(0); start < nR1; start += tuplesPerBlock {
		end := min(start+tuplesPerBlock, nR1)
		block = block[:end-start]
		var err error
		if r.perm == nil {
			for i := range block {
				if block[i], err = next(start + int64(i)); err != nil {
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
				if block[o%tuplesPerBlock], err = next(row); err != nil {
					return err
				}
			}
		}
		// Leave out the tuples whose sub-reference dangles; index the rest.
		clear(blockIdx)
		kept := block[:0]
		for _, c := range block {
			if !r.withSubtree(0, c) {
				continue
			}
			blockIdx[c.PrimaryKey()] = len(kept)
			kept = append(kept, c)
		}
		if err := fn(kept, blockIdx); err != nil {
			return err
		}
	}
	return nil
}

// probe resolves one fact tuple against the direct dimensions: the first
// one's position within the current block (via blockIdx), then every other
// one's resident position, one lookup per direct dimension. It returns
// ok=false when the fact tuple's R1 key belongs to another block or a key
// finds no tuple — a dangling key, or a dimension tuple left out because a
// hop below it dangles (inner-join semantics) — with resIdx[j] holding the
// position within Resident(j) on success.
func (r *Runner) probe(s *storage.Tuple, blockIdx map[int64]int, resIdx []int) (i1 int, ok bool) {
	i1, ok = blockIdx[s.Keys[1]]
	if !ok {
		return 0, false
	}
	for j, idx := range r.resIndex {
		ri, found := idx[s.Keys[2+j]]
		if !found {
			return 0, false
		}
		resIdx[j] = ri
	}
	return i1, true
}

// Run executes the join, invoking the callbacks. It may be called multiple
// times (e.g. once per EM pass); each call re-reads the base tables, which
// is exactly the repeated I/O the paper's cost model charges.
func (r *Runner) Run(cb Callbacks) error {
	if err := r.loadResident(); err != nil {
		return err
	}
	sp := r.spec
	resIdx := make([]int, len(r.resident))
	return r.forEachBlock(func(block []*storage.Tuple, blockIdx map[int64]int) error {
		if cb.OnBlockStart != nil {
			if err := cb.OnBlockStart(block); err != nil {
				return err
			}
		}
		if cb.OnMatch != nil {
			sc := sp.S.NewScanner()
			for sc.Next() {
				s := sc.Tuple()
				i1, ok := r.probe(s, blockIdx, resIdx)
				if !ok {
					continue
				}
				if err := cb.OnMatch(s, i1, resIdx); err != nil {
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

// NumBlocks returns how many R1 blocks a Run will produce.
func (r *Runner) NumBlocks() int64 {
	r1 := r.spec.Rs[0]
	perPage := int64(r1.Schema().RecordsPerPage())
	tuplesPerBlock := int64(r.spec.blockPages()) * perPage
	n := r1.NumTuples()
	if n == 0 {
		return 0
	}
	return (n + tuplesPerBlock - 1) / tuplesPerBlock
}
