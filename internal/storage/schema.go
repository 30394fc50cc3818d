package storage

import (
	"fmt"
	"strings"
)

// Schema describes the fixed-width record layout of a relation.
//
// A record is laid out as: all key columns (int64, little endian), then all
// feature columns (float64), then — if HasTarget — a single float64 target.
// The first key column is the relation's primary identifier; any further key
// columns are foreign keys.
//
// Refs, when set, names the table each foreign-key column references:
// Refs[i] is the target of Keys[1+i]. This is how snowflake schemas are
// recorded in the catalog — a dimension table whose Refs are non-empty
// references sub-dimension tables, and consumers (the join planner, the
// serving engine, cmd/train, cmd/serve) expand the hierarchy from the
// catalog alone. Refs is optional: a nil Refs leaves the references
// unrecorded, which every pre-snowflake caller relied on.
type Schema struct {
	Name      string
	Keys      []string // int64 columns; Keys[0] is the primary key
	Features  []string // float64 columns
	Refs      []string // referenced table per foreign key (len 0 or len(Keys)-1)
	HasTarget bool     // trailing float64 target column (Y in the paper)
}

// Validate reports structural problems with the schema.
func (s *Schema) Validate() error {
	if !validName(s.Name) {
		return fmt.Errorf("storage: invalid table name %q: want 1 to 128 letters, digits, '.', '_' or '-', not starting with '.'", s.Name)
	}
	if len(s.Keys) == 0 {
		return fmt.Errorf("storage: schema %q has no key columns", s.Name)
	}
	seen := make(map[string]bool)
	for _, c := range append(append([]string{}, s.Keys...), s.Features...) {
		if c == "" {
			return fmt.Errorf("storage: schema %q has an empty column name", s.Name)
		}
		if seen[c] {
			return fmt.Errorf("storage: schema %q has duplicate column %q", s.Name, c)
		}
		seen[c] = true
	}
	if len(s.Refs) != 0 && len(s.Refs) != len(s.Keys)-1 {
		return fmt.Errorf("storage: schema %q has %d foreign-key refs for %d foreign-key columns",
			s.Name, len(s.Refs), len(s.Keys)-1)
	}
	for i, ref := range s.Refs {
		if ref == "" {
			return fmt.Errorf("storage: schema %q has an empty ref for key column %q", s.Name, s.Keys[1+i])
		}
	}
	if s.RecordSize() > PageDataSize {
		return fmt.Errorf("storage: schema %q record size %d exceeds page capacity %d",
			s.Name, s.RecordSize(), PageDataSize)
	}
	return nil
}

// NumKeys returns the number of int64 key columns.
func (s *Schema) NumKeys() int { return len(s.Keys) }

// NumFeatures returns the number of float64 feature columns.
func (s *Schema) NumFeatures() int { return len(s.Features) }

// RecordSize returns the on-page size of one record in bytes.
func (s *Schema) RecordSize() int {
	n := 8*len(s.Keys) + 8*len(s.Features)
	if s.HasTarget {
		n += 8
	}
	return n
}

// RecordsPerPage returns how many records fit in one page.
func (s *Schema) RecordsPerPage() int {
	return PageDataSize / s.RecordSize()
}

// String renders the schema as "name(keys; features; target?)".
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%s; %s", s.Name, strings.Join(s.Keys, ","), strings.Join(s.Features, ","))
	if s.HasTarget {
		b.WriteString("; Y")
	}
	b.WriteString(")")
	return b.String()
}

// Clone returns a deep copy of the schema with a new name.
func (s *Schema) Clone(name string) *Schema {
	c := &Schema{
		Name:      name,
		Keys:      append([]string{}, s.Keys...),
		Features:  append([]string{}, s.Features...),
		HasTarget: s.HasTarget,
	}
	if len(s.Refs) > 0 {
		c.Refs = append([]string{}, s.Refs...)
	}
	return c
}
