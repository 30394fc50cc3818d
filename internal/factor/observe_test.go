package factor

import (
	"sync"
	"testing"
)

// TestPassObserverEvents: an installed observer receives one event per
// row pass with the pass name, the exact row count, and the chunk count
// of the fixed chunk geometry — and the pass result is unchanged.
func TestPassObserverEvents(t *testing.T) {
	const n, d = 700, 3
	scan := func(onRow RowFn) error {
		x := make([]float64, d)
		for i := 0; i < n; i++ {
			x[0] = float64(i)
			if err := onRow(x, 0); err != nil {
				return err
			}
		}
		return nil
	}
	for _, workers := range []int{1, 4} {
		var mu sync.Mutex
		var events []PassEvent
		SetObserver(func(ev PassEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		})
		sum := 0.0
		err := RunRowPass("test.observed", workers, d, scan, PassHooks[float64]{
			Fold: func(a *float64, start int, rows, _ []float64, nr int) error {
				for i := 0; i < nr; i++ {
					*a += rows[i*d]
				}
				return nil
			},
			Merge: func(a *float64) error { sum, *a = sum+*a, 0; return nil },
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
		wantChunks := int64((n + 255) / 256)
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
	scan := func(onRow RowFn) error { return onRow([]float64{1}, 0) }
	err := RunRowPass("test.removed", 1, 1, scan, PassHooks[struct{}]{
		Fold:  func(*struct{}, int, []float64, []float64, int) error { return nil },
		Merge: func(*struct{}) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
}
