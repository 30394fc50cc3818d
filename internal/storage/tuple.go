package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Tuple is the in-memory form of one record.
type Tuple struct {
	Keys     []int64
	Features []float64
	Target   float64
}

// PrimaryKey returns the value of the first key column.
func (t *Tuple) PrimaryKey() int64 { return t.Keys[0] }

// encode writes the tuple into dst (which must be at least RecordSize bytes)
// according to the schema layout.
func encodeTuple(dst []byte, s *Schema, t *Tuple) error {
	if len(t.Keys) != len(s.Keys) {
		return fmt.Errorf("storage: tuple has %d keys, schema %q wants %d", len(t.Keys), s.Name, len(s.Keys))
	}
	if len(t.Features) != len(s.Features) {
		return fmt.Errorf("storage: tuple has %d features, schema %q wants %d", len(t.Features), s.Name, len(s.Features))
	}
	off := 0
	for _, k := range t.Keys {
		binary.LittleEndian.PutUint64(dst[off:], uint64(k))
		off += 8
	}
	for _, f := range t.Features {
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(f))
		off += 8
	}
	if s.HasTarget {
		binary.LittleEndian.PutUint64(dst[off:], math.Float64bits(t.Target))
	}
	return nil
}

// decodeTuple reads a record from src into t, reusing t's slices when they
// have the right capacity.
func decodeTuple(src []byte, s *Schema, t *Tuple) {
	if cap(t.Keys) < len(s.Keys) {
		t.Keys = make([]int64, len(s.Keys))
	}
	t.Keys = t.Keys[:len(s.Keys)]
	if cap(t.Features) < len(s.Features) {
		t.Features = make([]float64, len(s.Features))
	}
	t.Features = t.Features[:len(s.Features)]
	off := 0
	for i := range t.Keys {
		t.Keys[i] = int64(binary.LittleEndian.Uint64(src[off:]))
		off += 8
	}
	for i := range t.Features {
		t.Features[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
		off += 8
	}
	if s.HasTarget {
		t.Target = math.Float64frombits(binary.LittleEndian.Uint64(src[off:]))
	} else {
		t.Target = 0
	}
}
