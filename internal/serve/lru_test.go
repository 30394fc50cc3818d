package serve

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refLRU is the reference the slot cache is checked against: a recency
// list as a plain slice, most recently used first.
type refLRU struct {
	capacity     int
	keys         []int32
	vals         map[int32][]float64
	vers         map[int32][]uint32
	hits, misses uint64
}

func (r *refLRU) get(key int32, vers []uint32) ([]float64, bool) {
	i := slices.Index(r.keys, key)
	if i < 0 || !slices.Equal(r.vers[key], vers) {
		r.misses++
		return nil, false
	}
	r.keys = append([]int32{key}, slices.Delete(r.keys, i, i+1)...)
	r.hits++
	return r.vals[key], true
}

func (r *refLRU) put(key int32, vers []uint32, val []float64) {
	if i := slices.Index(r.keys, key); i >= 0 {
		r.keys = slices.Delete(r.keys, i, i+1)
	} else if len(r.keys) >= r.capacity {
		old := r.keys[len(r.keys)-1]
		r.keys = r.keys[:len(r.keys)-1]
		delete(r.vals, old)
		delete(r.vers, old)
	}
	r.keys = append([]int32{key}, r.keys...)
	r.vals[key], r.vers[key] = val, slices.Clone(vers)
}

func (r *refLRU) remove(key int32) bool {
	i := slices.Index(r.keys, key)
	if i < 0 {
		return false
	}
	r.keys = slices.Delete(r.keys, i, i+1)
	delete(r.vals, key)
	delete(r.vers, key)
	return true
}

// TestDimCacheMatchesReferenceLRU drives the slot cache and the reference
// through one seeded get/put/remove sequence per capacity and subtree size
// (one node, a star's, and three) and requires the same answer, hit and
// miss counts and length after every operation — including gets with a
// stale version of any node of the subtree (a miss) and a remove followed
// by a put of the same key.
func TestDimCacheMatchesReferenceLRU(t *testing.T) {
	const nKeys = 8
	for _, nodes := range []int{1, 3} {
		for capacity := 1; capacity <= 5; capacity++ {
			testDimCacheMatchesReferenceLRU(t, nKeys, nodes, capacity)
		}
	}
}

func testDimCacheMatchesReferenceLRU(t *testing.T, nKeys, nodes, capacity int) {
	rng := rand.New(rand.NewSource(int64(capacity)))
	c := newDimCache(capacity, nodes)
	ref := &refLRU{capacity: capacity, vals: map[int32][]float64{}, vers: map[int32][]uint32{}}
	vers := make([][]uint32, nKeys) // each key's current version vector
	for key := range vers {
		vers[key] = make([]uint32, nodes)
	}
	check := func(step int, op string) {
		t.Helper()
		h, m := c.counters()
		if n, _ := c.size(); h != ref.hits || m != ref.misses || n != len(ref.keys) {
			t.Fatalf("nodes %d capacity %d step %d (%s): hits/misses/len %d/%d/%d, reference %d/%d/%d",
				nodes, capacity, step, op, h, m, n, ref.hits, ref.misses, len(ref.keys))
		}
	}
	for step := 0; step < 2000; step++ {
		key := int32(rng.Intn(nKeys))
		switch r := rng.Intn(10); {
		case r < 5:
			ver := slices.Clone(vers[key])
			if rng.Intn(8) == 0 {
				ver[rng.Intn(nodes)]++ // a stale (other) version vector
			}
			got, ok := c.get(key, ver)
			want, wok := ref.get(key, ver)
			if ok != wok || !slices.Equal(got, want) {
				t.Fatalf("nodes %d capacity %d step %d: get(%d) = %v/%v, reference %v/%v", nodes, capacity, step, key, got, ok, want, wok)
			}
			check(step, "get")
		case r < 8:
			if rng.Intn(4) == 0 {
				vers[key][rng.Intn(nodes)]++ // a tuple of the subtree was replaced
			}
			val := []float64{float64(key), float64(step)}
			c.put(key, vers[key], val)
			ref.put(key, vers[key], val)
			check(step, "put")
		default:
			if got, want := c.remove(key), ref.remove(key); got != want {
				t.Fatalf("nodes %d capacity %d step %d: remove(%d) = %v, reference %v", nodes, capacity, step, key, got, want)
			}
			check(step, "remove")
			if rng.Intn(2) == 0 {
				val := []float64{float64(key), -float64(step)}
				c.put(key, vers[key], val)
				ref.put(key, vers[key], val)
				check(step, "remove-then-put")
			}
		}
	}
	if n, b := c.size(); n > 0 && b < n*(slotBytes+2*8+4*(nodes-1)) {
		t.Fatalf("nodes %d capacity %d: %d entries report %d bytes", nodes, capacity, n, b)
	}
}

// TestDimCacheConcurrentHits hammers a capacity-2 cache from several
// goroutines with values that are a pure function of the key: every hit
// must return exactly that value, however puts, evictions and removes
// interleave. Run under -race it also pins the cache's locking.
func TestDimCacheConcurrentHits(t *testing.T) {
	const nKeys = 5
	c := newDimCache(2, 1)
	zero := []uint32{0}
	valueOf := func(k int32) []float64 { return []float64{float64(k), float64(k * k), -float64(k)} }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 5000; i++ {
				k := int32(rng.Intn(nKeys))
				switch rng.Intn(8) {
				case 0:
					c.remove(k)
				case 1, 2:
					c.put(k, zero, valueOf(k))
				default:
					if v, ok := c.get(k, zero); ok && !slices.Equal(v, valueOf(k)) {
						t.Errorf("get(%d) = %v, want %v", k, v, valueOf(k))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n, _ := c.size(); n > 2 {
		t.Fatalf("capacity-2 cache holds %d entries", n)
	}
}
