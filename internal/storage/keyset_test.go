package storage

import (
	"encoding/binary"
	"math/bits"
	"testing"
)

// FuzzKeySet adds a key sequence to a keySet and to a map: the counts must
// agree after every add, and the representation must hold each key once.
// Each key is two bytes, small enough that dense runs, repeats, keys the
// bitset grows over after they spilled, and negative keys all occur.
func FuzzKeySet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 1})
	f.Add([]byte{0x10, 0, 0, 1, 0, 2, 0x10, 0, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7})
	f.Add([]byte{0xff, 0xff, 0x80, 0, 0, 0, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s keySet
		ref := map[int64]bool{}
		for i := 0; i+1 < len(data); i += 2 {
			k := int64(int16(binary.BigEndian.Uint16(data[i:]))) * int64(1+data[i]%3)
			s.add(k)
			ref[k] = true
			if s.count() != int64(len(ref)) {
				t.Fatalf("after %d adds (key %d): count %d, want %d", i/2+1, k, s.count(), len(ref))
			}
		}
		held := int64(len(s.spill))
		for _, w := range s.bits {
			held += int64(bits.OnesCount64(w))
		}
		if held != s.count() {
			t.Fatalf("the set holds %d keys and counts %d", held, s.count())
		}
		for k := range s.spill {
			if k >= 0 && k < int64(len(s.bits))<<6 {
				t.Fatalf("key %d is spilled inside the bitset's reach", k)
			}
		}
	})
}

// TestKeySetDenseKeysStayInBitset pins the representation the planner's
// statistics rely on to be small: keys 0…n−1 in any order of arrival
// never spill once the first eighth of them has arrived.
func TestKeySetDenseKeysStayInBitset(t *testing.T) {
	var s keySet
	const n = 10000
	for k := int64(0); k < n; k++ {
		s.add((k * 7919) % n) // a permutation of 0…n−1
	}
	if s.count() != n || len(s.spill) != 0 || len(s.bits) > 2*(n/64+1) {
		t.Fatalf("count %d, %d spilled, %d words for %d dense keys", s.count(), len(s.spill), len(s.bits), n)
	}
}
