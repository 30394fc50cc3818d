package stream

import (
	"context"
	"sync"
	"testing"

	"factorml/internal/serve"
)

// TestConcurrentServeAndIngest hammers the serving hot path while the
// change feed applies dimension updates, fact appends and refreshes.
// Run under -race (CI does) this pins the locking contract: predictions,
// index upserts, cache invalidations and model republications never race.
func TestConcurrentServeAndIngest(t *testing.T) {
	_, spec, _, eng, _, s := serveFixture(t, Policy{NumWorkers: 2})
	dimTable := spec.Rs[0].Schema().Name
	pk0, _ := s.idxs[0].At(0)
	pk1, _ := s.idxs[0].At(1)

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Readers: batched predictions against both models.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows := []serve.Row{
				{Fact: []float64{0.1, 0.2, 0.3}, FKs: []int64{pk0}},
				{Fact: []float64{-1, 0, 1}, FKs: []int64{pk1}},
			}
			name := "g"
			if g%2 == 1 {
				name = "n"
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := eng.PredictCtx(context.Background(), name, rows); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}

	// Writer: dimension updates, fact appends, refreshes.
	for i := 0; i < 15; i++ {
		if _, err := s.Ingest(Batch{Dims: []DimUpdate{
			{Table: dimTable, RID: pk0, Features: []float64{float64(i), -float64(i)}},
		}}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Ingest(deltaBatch(t, spec, s.idxs, 5, int64(1000+i))); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if _, err := s.Refresh(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
