package factor

import (
	"sync"
	"testing"

	"factorml/internal/join"
	"factorml/internal/plan"
)

// TestPassObserverEvents: an installed observer receives one event per
// chunked pass with the pass name, the exact match count, and the chunk
// count of the fixed chunk geometry — and the pass result is unchanged.
func TestPassObserverEvents(t *testing.T) {
	const n = 700 // one block, every row a match
	db, spec := buildJoin(t, n, 7, func(i int64) int64 { return i % 7 })
	ps, err := Open(db, spec, plan.Materialized, "T_observed")
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	ps.Pass = "test.observed"
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var events []PassEvent
		SetObserver(func(ev PassEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		})
		sum := 0.0
		err := RunChunks(ps, workers, join.ParallelCallbacks[float64]{
			OnMatchChunk: func(a *float64, matches []join.Match) error {
				for _, m := range matches {
					*a += m.S.Target
				}
				return nil
			},
			OnChunkMerged: func(a *float64) error { sum, *a = sum+*a, 0; return nil },
		})
		SetObserver(nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		want := float64(n) * float64(n-1) / 2
		if sum != want {
			t.Fatalf("workers=%d: sum = %v, want %v", workers, sum, want)
		}
		if len(events) != 1 {
			t.Fatalf("workers=%d: got %d events, want 1", workers, len(events))
		}
		ev := events[0]
		if ev.Pass != "test.observed" || ev.Phase != "fold" {
			t.Fatalf("workers=%d: event = %+v", workers, ev)
		}
		if ev.Rows != n {
			t.Fatalf("workers=%d: Rows = %d, want %d", workers, ev.Rows, n)
		}
		wantChunks := int64((n + join.ParallelChunkRows - 1) / join.ParallelChunkRows)
		if ev.Chunks != wantChunks {
			t.Fatalf("workers=%d: Chunks = %d, want %d", workers, ev.Chunks, wantChunks)
		}
		if ev.Workers != workers || ev.Err {
			t.Fatalf("workers=%d: event = %+v", workers, ev)
		}
	}
}

// TestPassObserverRemoved: after SetObserver(nil) no events are emitted.
func TestPassObserverRemoved(t *testing.T) {
	SetObserver(func(PassEvent) { t.Error("observer fired after removal") })
	SetObserver(nil)
	db, spec := buildStar(t)
	ps, err := Open(db, spec, plan.Streaming, "")
	if err != nil {
		t.Fatal(err)
	}
	err = RunChunks(ps, 1, join.ParallelCallbacks[struct{}]{
		OnMatchChunk:  func(*struct{}, []join.Match) error { return nil },
		OnChunkMerged: func(*struct{}) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Scan(func([]float64, float64) error { return nil }); err != nil {
		t.Fatal(err)
	}
}
