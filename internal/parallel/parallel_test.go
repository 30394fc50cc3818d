package parallel

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// sumRun runs a chunked sum of 1/(i+1) over n rows with the given worker
// count, returning the merged total. The chunk geometry is fixed, so every
// worker count must produce the identical float.
func sumRun(t *testing.T, workers, n, chunk int) float64 {
	t.Helper()
	total := 0.0
	err := Run(workers,
		func(f *Feed[[2]int]) error {
			for start := 0; start < n; start += chunk {
				end := start + chunk
				if end > n {
					end = n
				}
				if err := f.Emit([2]int{start, end}); err != nil {
					return err
				}
			}
			return nil
		},
		func(r [2]int) (float64, error) {
			s := 0.0
			for i := r[0]; i < r[1]; i++ {
				s += 1 / float64(i+1)
			}
			return s, nil
		},
		func(s float64) error {
			total += s
			return nil
		})
	if err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	return total
}

func TestRunBitIdenticalAcrossWorkerCounts(t *testing.T) {
	const n, chunk = 100000, 256
	want := sumRun(t, 1, n, chunk)
	for _, w := range []int{2, 3, 4, 8} {
		if got := sumRun(t, w, n, chunk); got != want {
			t.Fatalf("workers=%d: sum %v, want bit-identical %v", w, got, want)
		}
	}
}

func TestRunMergesInEmissionOrder(t *testing.T) {
	const chunks = 200
	for _, w := range []int{1, 4} {
		var order []int
		err := Run(w,
			func(f *Feed[int]) error {
				for i := 0; i < chunks; i++ {
					if err := f.Emit(i); err != nil {
						return err
					}
				}
				return nil
			},
			func(i int) (int, error) { return i, nil },
			func(i int) error {
				order = append(order, i)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(order) != chunks {
			t.Fatalf("workers=%d: merged %d chunks, want %d", w, len(order), chunks)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d: merge order[%d] = %d", w, i, v)
			}
		}
	}
}

// TestRunReusesChunksWithinWindow stalls the first chunk's worker until the
// producer has filled the emission window, and pins what Feed.Next hands
// out: at most window+1 distinct chunk objects, an object reused only after
// its previous merge has returned, and merges still in emission order. The
// fields the merge writes and the producer reads on reuse are not guarded
// by anything but the window, so -race checks the hand-off too.
func TestRunReusesChunksWithinWindow(t *testing.T) {
	type chunk struct {
		seq    int
		merged bool
	}
	const chunks = 200
	for _, w := range []int{1, 4} {
		win := window(w)
		objects := make(map[*chunk]bool)
		var order []int
		var merged int64
		maxOut := int64(0)
		full := make(chan struct{}) // closed once win chunks are out unmerged
		err := Run(w,
			func(f *Feed[*chunk]) error {
				for i := 0; i < chunks; i++ {
					c := f.Next(func() *chunk { return &chunk{seq: -1, merged: true} })
					objects[c] = true
					if out := int64(i) - atomic.LoadInt64(&merged); out > maxOut {
						maxOut = out
					}
					if i == win {
						close(full) // before any early return, so the stalled worker ends
					}
					if !c.merged {
						return fmt.Errorf("chunk %d got the object of chunk %d before its merge returned", i, c.seq)
					}
					c.seq, c.merged = i, false
					if err := f.Emit(c); err != nil {
						return err
					}
				}
				return nil
			},
			func(c *chunk) (*chunk, error) {
				if c.seq == 0 {
					<-full
				}
				return c, nil
			},
			func(c *chunk) error {
				order = append(order, c.seq)
				c.merged = true
				atomic.AddInt64(&merged, 1)
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(objects) > win+1 {
			t.Errorf("workers=%d: the producer got %d distinct chunk objects, window %d allows %d", w, len(objects), win, win+1)
		}
		if maxOut != int64(win) {
			t.Errorf("workers=%d: at most %d chunks were out unmerged, want the window, %d", w, maxOut, win)
		}
		for i, v := range order {
			if v != i {
				t.Fatalf("workers=%d: merge order[%d] = %d", w, i, v)
			}
		}
		if len(order) != chunks {
			t.Fatalf("workers=%d: merged %d chunks, want %d", w, len(order), chunks)
		}
	}
}

func TestRunBarrierQuiescesPool(t *testing.T) {
	for _, w := range []int{1, 4} {
		var inFlight, maxSeen atomic.Int64
		merged := 0
		phase := 0 // written only inside barriers and read by workers
		err := Run(w,
			func(f *Feed[int]) error {
				for block := 0; block < 5; block++ {
					for i := 0; i < 37; i++ {
						if err := f.Emit(block); err != nil {
							return err
						}
					}
					if err := f.Barrier(func() error {
						if got := inFlight.Load(); got != 0 {
							return fmt.Errorf("barrier entered with %d workers in flight", got)
						}
						phase++
						return nil
					}); err != nil {
						return err
					}
				}
				return nil
			},
			func(block int) (int, error) {
				v := inFlight.Add(1)
				if m := maxSeen.Load(); v > m {
					maxSeen.Store(v)
				}
				if phase != block {
					inFlight.Add(-1)
					return 0, fmt.Errorf("worker saw phase %d during block %d", phase, block)
				}
				inFlight.Add(-1)
				return 1, nil
			},
			func(v int) error {
				merged += v
				return nil
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if merged != 5*37 {
			t.Fatalf("workers=%d: merged %d, want %d", w, merged, 5*37)
		}
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 4} {
		// Worker error.
		err := Run(w,
			func(f *Feed[int]) error {
				for i := 0; i < 1000; i++ {
					if err := f.Emit(i); err != nil {
						return err
					}
				}
				return nil
			},
			func(i int) (int, error) {
				if i == 13 {
					return 0, boom
				}
				return i, nil
			},
			func(int) error { return nil })
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: worker error = %v, want %v", w, err, boom)
		}
		// Merge error.
		err = Run(w,
			func(f *Feed[int]) error {
				for i := 0; i < 1000; i++ {
					if err := f.Emit(i); err != nil {
						return err
					}
				}
				return nil
			},
			func(i int) (int, error) { return i, nil },
			func(i int) error {
				if i == 7 {
					return boom
				}
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: merge error = %v, want %v", w, err, boom)
		}
		// Producer error.
		err = Run(w,
			func(f *Feed[int]) error { return boom },
			func(i int) (int, error) { return i, nil },
			nil)
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: produce error = %v, want %v", w, err, boom)
		}
	}
}

func TestWorkers(t *testing.T) {
	if Workers(0) < 1 {
		t.Fatal("Workers(0) must be at least 1")
	}
	if got := Workers(-3); got != 1 {
		t.Fatalf("Workers(-3) = %d, want 1", got)
	}
	if got := Workers(6); got != 6 {
		t.Fatalf("Workers(6) = %d, want 6", got)
	}
}
