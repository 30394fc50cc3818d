package storage

// keySet counts the distinct values of one foreign-key column exactly.
// Non-negative keys below the bitset's reach are bits; every other key is
// an entry of a spill map. The bitset grows to take a new key while the key
// is within about 8 × the distinct count (or the first 64 keys), so a
// column of dense keys — every generator's and benchmark table's — costs a
// bit per key, and a sparse column costs no more than its map. Growing
// moves the map's keys it now reaches into the bitset, so no key is ever
// held (and counted) twice.
type keySet struct {
	bits  []uint64
	spill map[int64]bool
	n     int64
}

// add inserts k, counting it when it is new.
func (s *keySet) add(k int64) {
	if k >= 0 && k>>6 >= int64(len(s.bits)) && k < max(64, 8*(s.n+1)) {
		s.grow(int(k>>6) + 1)
	}
	if k >= 0 && k>>6 < int64(len(s.bits)) {
		w, b := &s.bits[k>>6], uint64(1)<<(k&63)
		if *w&b == 0 {
			*w |= b
			s.n++
		}
		return
	}
	if !s.spill[k] {
		if s.spill == nil {
			s.spill = make(map[int64]bool)
		}
		s.spill[k] = true
		s.n++
	}
}

// grow extends the bitset to at least words words (doubling, so dense
// appends grow it amortized O(1)) and moves the spilled keys it now
// reaches into it.
func (s *keySet) grow(words int) {
	old := len(s.bits)
	s.bits = append(s.bits, make([]uint64, max(words, 2*old)-old)...)
	reach := int64(len(s.bits)) << 6
	for k := range s.spill {
		if k >= 0 && k < reach {
			s.bits[k>>6] |= uint64(1) << (k & 63)
			delete(s.spill, k)
		}
	}
}

// count returns the number of distinct keys added.
func (s *keySet) count() int64 { return s.n }
