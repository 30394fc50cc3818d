package join

import (
	"fmt"

	"factorml/internal/storage"
)

// DimPlan is the flattened layout of a snowflake dimension hierarchy: every
// relation reachable from the fact table, in depth-first preorder (each
// direct dimension followed by its whole subtree, subtrees in foreign-key
// order). The same plan drives the training-side join (Spec), the serving
// engine's per-request probes and the streaming maintenance's group
// resolution, so all three agree on one relation order — and therefore one
// core.Partition of the joined feature vector.
//
// Parent[i] is the node whose tuple carries the foreign key that resolves
// node i: -1 when the key lives on the fact tuple itself, otherwise the
// index of the parent node (always < i, the preorder invariant). Ref[i] is
// the 0-based foreign-key position within the parent's key columns — key
// column 1+Ref[i] of the parent tuple — or, for a direct dimension, the
// position among the fact table's foreign keys.
//
// A table referenced from two places in the hierarchy appears once per
// reference path: the materialized join carries its columns once per path.
// Training, refresh and serving all score a snowflake as a star over its
// direct dimensions: the Runner folds every subtree into its direct
// dimension's tuples (see the package comment), and the serving engine and
// the streaming statistics read a direct tuple with its subtree through
// Resolver.Subtree, so a direct dimension's subtree is one partition part.
type DimPlan struct {
	Tables []*storage.Table
	Parent []int
	Ref    []int
}

// Spec builds a join spec over the plan rooted at fact.
func (pl *DimPlan) Spec(fact *storage.Table) *Spec {
	return &Spec{S: fact, Rs: pl.Tables, Parent: pl.Parent, Ref: pl.Ref}
}

// BuildIndexes pins one ResidentIndex per plan node, sharing a single
// index per table across every node that references it — so a dimension
// update lands exactly once no matter how many hierarchy positions the
// table occupies. lookup, when non-nil, supplies pre-pinned indexes (e.g.
// a serving engine's) instead of building fresh ones; a supplied index
// must match the table's feature width.
func (pl *DimPlan) BuildIndexes(lookup func(name string) (*ResidentIndex, bool)) ([]*ResidentIndex, error) {
	idxs := make([]*ResidentIndex, 0, len(pl.Tables))
	byName := make(map[string]*ResidentIndex)
	for _, t := range pl.Tables {
		name := t.Schema().Name
		ix, pinned := byName[name]
		if !pinned {
			if lookup != nil {
				var ok bool
				ix, ok = lookup(name)
				if !ok {
					return nil, fmt.Errorf("join: no pinned index for dimension table %q", name)
				}
				if got, want := ix.Width(), t.Schema().NumFeatures(); got != want {
					return nil, fmt.Errorf("join: pinned index %q has width %d, table has %d", name, got, want)
				}
			} else {
				var err error
				ix, err = BuildResidentIndex(t)
				if err != nil {
					return nil, err
				}
			}
			byName[name] = ix
		}
		idxs = append(idxs, ix)
	}
	return idxs, nil
}

// ExpandDims flattens the snowflake hierarchy rooted at the given direct
// dimension tables into a DimPlan, resolving each table's recorded
// sub-dimension references (storage.Schema.Refs) through lookup. A nil
// lookup only accepts leaf dimensions (the pre-snowflake one-hop layout).
// Reference cycles are rejected.
func ExpandDims(direct []*storage.Table, lookup func(name string) (*storage.Table, error)) (*DimPlan, error) {
	if len(direct) == 0 {
		return nil, fmt.Errorf("join: no dimension tables to expand")
	}
	pl := &DimPlan{}
	var walk func(t *storage.Table, parent, ref int, path []string) error
	walk = func(t *storage.Table, parent, ref int, path []string) error {
		name := t.Schema().Name
		for _, anc := range path {
			if anc == name {
				return fmt.Errorf("join: dimension reference cycle through table %q", name)
			}
		}
		node := len(pl.Tables)
		pl.Tables = append(pl.Tables, t)
		pl.Parent = append(pl.Parent, parent)
		pl.Ref = append(pl.Ref, ref)
		refs := t.Schema().Refs
		if got, want := t.Schema().NumKeys()-1, len(refs); got != want {
			return fmt.Errorf("join: dimension table %q has %d foreign-key columns but %d recorded refs",
				name, got, want)
		}
		if len(refs) > 0 && lookup == nil {
			return fmt.Errorf("join: dimension table %q references sub-dimensions %v but no table lookup was provided",
				name, refs)
		}
		for i, sub := range refs {
			st, err := lookup(sub)
			if err != nil {
				return fmt.Errorf("join: resolving sub-dimension %q of %q: %w", sub, name, err)
			}
			if err := walk(st, node, i, append(path, name)); err != nil {
				return err
			}
		}
		return nil
	}
	for i, t := range direct {
		if t == nil {
			return nil, fmt.Errorf("join: direct dimension table %d is nil", i)
		}
		if err := walk(t, -1, i, nil); err != nil {
			return nil, err
		}
	}
	return pl, nil
}

// Resolver resolves one fact tuple's foreign keys through a snowflake
// hierarchy against resident indexes: node i's tuple is found by following
// the plan's parent edge (a direct key on the fact row, or a sub-key pinned
// on the parent's resident tuple). The serving engine and the streaming
// statistics share this logic, so both observe the same join semantics as
// the training-side Runner.
type Resolver struct {
	Parent []int
	Ref    []int
	Idxs   []*ResidentIndex // one per node; nodes of one table may share an index
	direct []int            // the direct nodes, in foreign-key order
	// end[i] is one past the last node of node i's subtree; keyOff[i] is
	// where node i's sub-keys start in a subtree walk's key buffer (the
	// running sum of NumRefs over the nodes before it).
	end, keyOff []int
}

// NewResolver builds a resolver over per-node resident indexes. The index
// slice must parallel the plan's nodes, and every sub-dimension node's
// foreign-key position must be one its parent's index holds.
func NewResolver(parent, ref []int, idxs []*ResidentIndex) (*Resolver, error) {
	if len(parent) != len(idxs) || len(ref) != len(idxs) {
		return nil, fmt.Errorf("join: resolver shape mismatch: %d parents, %d refs, %d indexes",
			len(parent), len(ref), len(idxs))
	}
	n := len(idxs)
	rv := &Resolver{Parent: parent, Ref: ref, Idxs: idxs, end: make([]int, n), keyOff: make([]int, n+1)}
	for i, p := range parent {
		switch {
		case p == -1:
			rv.direct = append(rv.direct, i)
		case p < 0 || p >= i:
			return nil, fmt.Errorf("join: resolver node %d has parent %d, want -1 or a smaller node index", i, p)
		case ref[i] < 0 || ref[i] >= idxs[p].NumRefs():
			return nil, fmt.Errorf("join: dimension table %q has %d sub-keys, resolver node %d wants key %d",
				idxs[p].Name(), idxs[p].NumRefs(), i, ref[i])
		}
		rv.keyOff[i+1] = rv.keyOff[i] + idxs[i].NumRefs()
	}
	// A subtree is contiguous in preorder: it ends at the next node whose
	// parent lies before it.
	for i := n - 1; i >= 0; i-- {
		rv.end[i] = i + 1
		for rv.end[i] < n && rv.Parent[rv.end[i]] >= i {
			rv.end[i] = rv.end[rv.end[i]]
		}
	}
	return rv, nil
}

// NumDirect returns the number of direct (fact-keyed) nodes.
func (rv *Resolver) NumDirect() int { return len(rv.direct) }

// Direct returns the plan node of every direct dimension, in foreign-key
// order. The caller must not modify it.
func (rv *Resolver) Direct() []int { return rv.direct }

// SubtreeEnd returns one past the last node of node i's subtree: the
// subtree is nodes i … SubtreeEnd(i)−1, contiguous in preorder.
func (rv *Resolver) SubtreeEnd(i int) int { return rv.end[i] }

// SubtreeWidth returns the feature width of node i's subtree: the width of
// the features Subtree writes.
func (rv *Resolver) SubtreeWidth(i int) int {
	w := 0
	for _, ix := range rv.Idxs[i:rv.end[i]] {
		w += ix.Width()
	}
	return w
}

// Subtree reads the subtree rooted at node n's tuple with ordinal ord: feats
// receives its features, node by node in preorder (SubtreeWidth(n) of them),
// and vers the version of each node's tuple (SubtreeEnd(n) − n of them,
// preorder); either may be nil. It is the one subtree walk: serving reads
// its version vector as a cache token, refresh the features of a group.
//
// Each tuple's features, sub-keys and version are read under one read lock
// (ResidentIndex.Row) and its children are found through the sub-keys that
// read returned. A walk racing Upserts may mix tuples read at different
// times, but never a parent's features or version with sub-keys from
// another of its versions, so the version vector names the features read:
// a vector read again later reaches the same tuples at the same versions.
// Reading the sub-keys apart from the version would break that — a walk
// could pair a repointed parent's new version with its old child, and a
// cache would key that value by a vector a consistent walk reproduces.
func (rv *Resolver) Subtree(n, ord int, feats []float64, vers []uint32) error {
	n1, k0 := rv.end[n], rv.keyOff[n]
	var keyBuf [16]int64
	keys := keyBuf[:]
	if nk := rv.keyOff[n1] - k0; nk > len(keys) {
		keys = make([]int64, nk)
	}
	for i := n; i < n1; i++ {
		ix := rv.Idxs[i]
		if i > n {
			pk := keys[rv.keyOff[rv.Parent[i]]-k0+rv.Ref[i]]
			at, ok := ix.Pos(pk)
			if !ok {
				return fmt.Errorf("unknown foreign key %d for dimension table %q", pk, ix.Name())
			}
			ord = at
		}
		var x []float64
		if feats != nil {
			x, feats = feats[:ix.Width()], feats[ix.Width():]
		}
		v := ix.Row(ord, x, keys[rv.keyOff[i]-k0:rv.keyOff[i+1]-k0])
		if vers != nil {
			vers[i-n] = v
		}
	}
	return nil
}

// Hop resolves node i into pos[i] from what is resolved before it — a
// direct node from the fact row's keys fks, a sub-dimension node from the
// sub-key its parent's tuple (at pos[Parent[i]]) pins NOW — and returns the
// key followed. Resolve takes it per fact row and node, the serving engine
// per direct key; Subtree instead hops through the sub-keys it read with
// each parent's version.
func (rv *Resolver) Hop(i int, fks []int64, pos []int) (int64, error) {
	var pk int64
	if parent := rv.Parent[i]; parent == -1 {
		pk = fks[rv.Ref[i]]
	} else {
		pix := rv.Idxs[parent]
		if rv.Ref[i] >= pix.NumRefs() {
			return 0, fmt.Errorf("join: tuple %d of dimension table %q has %d sub-keys, resolver wants key %d",
				pos[parent], pix.Name(), pix.NumRefs(), rv.Ref[i])
		}
		pk = pix.SubAt(pos[parent], rv.Ref[i])
	}
	at, ok := rv.Idxs[i].Pos(pk)
	if !ok {
		return 0, fmt.Errorf("unknown foreign key %d for dimension table %q", pk, rv.Idxs[i].Name())
	}
	pos[i] = at
	return pk, nil
}

// Resolve follows the hierarchy for one fact row: fks holds the row's
// direct foreign keys (one per direct node, in node order), and on success
// pks[i]/pos[i] receive node i's primary key and dense index within its
// resident index. Either output slice may be nil when the caller does not
// need it; non-nil slices must have one slot per node.
func (rv *Resolver) Resolve(fks []int64, pks []int64, pos []int) error {
	if len(fks) != len(rv.direct) {
		return fmt.Errorf("join: %d foreign keys for %d direct dimension tables", len(fks), len(rv.direct))
	}
	var posBuf [8]int
	p := pos
	if p == nil {
		if len(rv.Idxs) <= len(posBuf) {
			p = posBuf[:len(rv.Idxs)]
		} else {
			p = make([]int, len(rv.Idxs))
		}
	}
	for i := range rv.Idxs {
		pk, err := rv.Hop(i, fks, p)
		if err != nil {
			return err
		}
		if pks != nil {
			pks[i] = pk
		}
	}
	return nil
}
