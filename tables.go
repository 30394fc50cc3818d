package factorml

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"factorml/internal/join"
	"factorml/internal/storage"
)

// DimensionTable is a relation R(rid, fk…, features…) referenced by fact
// tables — and, in a snowflake schema, by other dimension tables. A
// dimension table created with sub-dimension references carries one
// foreign-key column per reference.
type DimensionTable struct {
	tbl  *storage.Table
	subs []*DimensionTable
}

// Name returns the table name.
func (t *DimensionTable) Name() string { return t.tbl.Schema().Name }

// NumTuples returns the number of appended tuples.
func (t *DimensionTable) NumTuples() int64 { return t.tbl.NumTuples() }

// Append adds a tuple to a leaf dimension table. rid must be unique within
// the table. Tables with sub-dimension references take AppendRefs instead.
func (t *DimensionTable) Append(rid int64, features []float64) error {
	if len(t.subs) > 0 {
		return fmt.Errorf("factorml: dimension table %q references %d sub-dimensions; use AppendRefs", t.Name(), len(t.subs))
	}
	return t.tbl.Append(&storage.Tuple{Keys: []int64{rid}, Features: features})
}

// AppendRefs adds a tuple to a dimension table with sub-dimension
// references: fks must name an existing rid in each referenced
// sub-dimension table, in the order passed to CreateDimensionTable
// (checked at join time).
func (t *DimensionTable) AppendRefs(rid int64, fks []int64, features []float64) error {
	if len(fks) != len(t.subs) {
		return fmt.Errorf("factorml: %d foreign keys for %d sub-dimension tables of %q", len(fks), len(t.subs), t.Name())
	}
	keys := make([]int64, 1+len(fks))
	keys[0] = rid
	copy(keys[1:], fks)
	return t.tbl.Append(&storage.Tuple{Keys: keys, Features: features})
}

// Flush persists any buffered tuples.
func (t *DimensionTable) Flush() error { return t.tbl.Flush() }

// FactTable is a relation S(sid, fk…, features…, target?) with one foreign
// key per referenced dimension table.
type FactTable struct {
	tbl  *storage.Table
	dims []*DimensionTable
}

// Name returns the table name.
func (t *FactTable) Name() string { return t.tbl.Schema().Name }

// NumTuples returns the number of appended tuples.
func (t *FactTable) NumTuples() int64 { return t.tbl.NumTuples() }

// Append adds a fact tuple; fks must name an existing rid in each
// referenced dimension table (checked at join time). target is ignored
// unless the table was created with a target column.
func (t *FactTable) Append(sid int64, fks []int64, features []float64, target float64) error {
	if len(fks) != len(t.dims) {
		return fmt.Errorf("factorml: %d foreign keys for %d dimension tables", len(fks), len(t.dims))
	}
	keys := make([]int64, 1+len(fks))
	keys[0] = sid
	copy(keys[1:], fks)
	return t.tbl.Append(&storage.Tuple{Keys: keys, Features: features, Target: target})
}

// Flush persists any buffered tuples.
func (t *FactTable) Flush() error { return t.tbl.Flush() }

// CreateDimensionTable creates a dimension relation with the given feature
// columns. Passing sub-dimension tables builds a snowflake level: the new
// table gets one foreign-key column per referenced table (fill them with
// AppendRefs), and every join rooted at a fact table referencing this one
// transparently extends through the whole hierarchy. The references are
// recorded in the database catalog, so reopened databases — and cmd/train
// and cmd/serve — reconstruct the hierarchy without redeclaring it.
func (d *DB) CreateDimensionTable(name string, features []string, subs ...*DimensionTable) (*DimensionTable, error) {
	schema := &storage.Schema{
		Name:     name,
		Keys:     []string{"rid"},
		Features: features,
	}
	for i, sub := range subs {
		if sub == nil {
			return nil, fmt.Errorf("factorml: sub-dimension table %d of %q is nil", i, name)
		}
		schema.Keys = append(schema.Keys, fmt.Sprintf("fk%d", i+1))
		schema.Refs = append(schema.Refs, sub.Name())
	}
	tbl, err := d.db.CreateTable(schema)
	if err != nil {
		return nil, err
	}
	return &DimensionTable{tbl: tbl, subs: append([]*DimensionTable{}, subs...)}, nil
}

// CreateFactTable creates a fact relation with one foreign key per listed
// dimension table and, when withTarget is set, a target column for
// supervised training.
func (d *DB) CreateFactTable(name string, features []string, withTarget bool, dims ...*DimensionTable) (*FactTable, error) {
	if len(dims) == 0 {
		return nil, errors.New("factorml: a fact table needs at least one dimension table")
	}
	schema := &storage.Schema{
		Name:      name,
		Keys:      []string{"sid"},
		Features:  features,
		HasTarget: withTarget,
	}
	for i, dim := range dims {
		if dim == nil {
			return nil, fmt.Errorf("factorml: dimension table %d of %q is nil", i, name)
		}
		schema.Keys = append(schema.Keys, fmt.Sprintf("fk%d", i+1))
		schema.Refs = append(schema.Refs, dim.Name())
	}
	tbl, err := d.db.CreateTable(schema)
	if err != nil {
		return nil, err
	}
	return &FactTable{tbl: tbl, dims: dims}, nil
}

// DimensionTable opens an existing dimension relation by name,
// rebuilding its sub-dimension handles from the references recorded in
// the database catalog.
func (d *DB) DimensionTable(name string) (*DimensionTable, error) {
	tbl, err := d.db.Table(name)
	if err != nil {
		return nil, err
	}
	var subs []*DimensionTable
	for _, ref := range tbl.Schema().Refs {
		sub, err := d.DimensionTable(ref)
		if err != nil {
			return nil, err
		}
		subs = append(subs, sub)
	}
	return &DimensionTable{tbl: tbl, subs: subs}, nil
}

// ErrDimsMismatch is wrapped by the error DB.FactTable returns when the
// dimension tables a caller names are not the ones the catalog records.
var ErrDimsMismatch = errors.New("dimension tables do not match the catalog")

// FactTable opens an existing fact relation by name, rebuilding its
// dimension-table handles from the references recorded in the database
// catalog — the handle a reopened database needs for Dataset or
// NewStream (e.g. when rebooting a durable database after a crash).
//
// dims is for a caller that was told the join by someone else (cmd/train's
// -dims): when the catalog records the fact table's references, dims must
// be empty or repeat them exactly, in foreign-key order — the feature
// layout and the key each table is probed with both follow that order, so
// a permuted list is refused (ErrDimsMismatch) rather than trained over;
// when the catalog records none (a table created below this API), dims
// names the dimension tables.
func (d *DB) FactTable(name string, dims ...string) (*FactTable, error) {
	tbl, err := d.db.Table(name)
	if err != nil {
		return nil, err
	}
	if refs := tbl.Schema().Refs; len(refs) > 0 {
		if len(dims) > 0 && !slices.Equal(dims, refs) {
			return nil, fmt.Errorf("factorml: fact table %q references %s, in that order; got %s: %w",
				name, strings.Join(refs, ","), strings.Join(dims, ","), ErrDimsMismatch)
		}
		dims = refs
	}
	out := &FactTable{tbl: tbl}
	for _, ref := range dims {
		dim, err := d.DimensionTable(ref)
		if err != nil {
			return nil, err
		}
		out.dims = append(out.dims, dim)
	}
	return out, nil
}

// Dataset binds a fact table to its dimension tables for training.
type Dataset struct {
	db   *DB
	spec *join.Spec
}

// Dataset builds a training dataset over the join rooted at fact — the
// one-hop star, or, when any dimension table references sub-dimensions,
// the whole snowflake hierarchy flattened in depth-first preorder (the
// feature layout every trainer and server over this schema shares).
func (d *DB) Dataset(fact *FactTable) (*Dataset, error) {
	var direct []*storage.Table
	for _, dim := range fact.dims {
		direct = append(direct, dim.tbl)
	}
	spec, err := join.NewSnowflakeSpec(fact.tbl, direct, d.db.Table)
	if err != nil {
		return nil, err
	}
	if err := fact.Flush(); err != nil {
		return nil, err
	}
	for _, r := range spec.Rs {
		if err := r.Flush(); err != nil {
			return nil, err
		}
	}
	return &Dataset{db: d, spec: spec}, nil
}

// JoinedWidth returns the feature dimensionality of the (virtual) join.
func (ds *Dataset) JoinedWidth() int { return ds.spec.JoinedWidth() }

// NumRows returns the number of fact tuples.
func (ds *Dataset) NumRows() int64 { return ds.spec.S.NumTuples() }

// Stream iterates the joined rows without materializing them. The feature
// slice is reused between calls.
func (ds *Dataset) Stream(fn func(sid int64, features []float64, target float64) error) error {
	return join.Stream(ds.spec, fn)
}
