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
// reference path: the materialized join carries its columns once per path,
// so each path is its own partition part. The serving and streaming caches
// key on (node, tuple) and so share per-tuple work within a path; the
// training-side Runner instead folds every subtree into its direct
// dimension's tuples (see the package comment).
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
	direct int
}

// NewResolver builds a resolver over per-node resident indexes. The index
// slice must parallel the plan's nodes.
func NewResolver(parent, ref []int, idxs []*ResidentIndex) (*Resolver, error) {
	if len(parent) != len(idxs) || len(ref) != len(idxs) {
		return nil, fmt.Errorf("join: resolver shape mismatch: %d parents, %d refs, %d indexes",
			len(parent), len(ref), len(idxs))
	}
	rv := &Resolver{Parent: parent, Ref: ref, Idxs: idxs}
	for i, p := range parent {
		if p == -1 {
			rv.direct++
		} else if p < 0 || p >= i {
			return nil, fmt.Errorf("join: resolver node %d has parent %d, want -1 or a smaller node index", i, p)
		}
	}
	return rv, nil
}

// NumDirect returns the number of direct (fact-keyed) nodes.
func (rv *Resolver) NumDirect() int { return rv.direct }

// Hop resolves node i into pos[i] from what is resolved before it — a
// direct node from the fact row's keys fks, a sub-dimension node from the
// sub-key its parent's tuple (at pos[Parent[i]]) pins NOW — and returns the
// key followed. It is the one place a hierarchy hop is made: Resolve takes
// it per fact row and node, the streaming statistics per group.
func (rv *Resolver) Hop(i int, fks []int64, pos []int) (int64, error) {
	var pk int64
	if parent := rv.Parent[i]; parent == -1 {
		pk = fks[rv.Ref[i]]
	} else {
		subs := rv.Idxs[parent].SubsAt(pos[parent])
		if rv.Ref[i] >= len(subs) {
			return 0, fmt.Errorf("join: tuple %d of dimension table %q has %d sub-keys, resolver wants key %d",
				pos[parent], rv.Idxs[parent].Name(), len(subs), rv.Ref[i])
		}
		pk = subs[rv.Ref[i]]
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
	if len(fks) != rv.direct {
		return fmt.Errorf("join: %d foreign keys for %d direct dimension tables", len(fks), rv.direct)
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
