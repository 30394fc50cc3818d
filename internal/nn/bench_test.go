package nn

import (
	"fmt"
	"testing"

	"factorml/internal/data"
	"factorml/internal/plan"
	"factorml/internal/storage"
)

// BenchmarkShuffledEpoch times one shuffled Block-mode F-NN epoch — the
// per-epoch permutation of R1's keys of §VI, which reads R1 in permuted
// order — with R1 well below and well above 256 pages:
//
//	go test -run '^$' -bench ShuffledEpoch -count 10 ./internal/nn
//
// Each size's schema is generated once, before its sub-benchmark runs.
func BenchmarkShuffledEpoch(b *testing.B) {
	cfg := Config{Hidden: []int{8}, Epochs: 1, Mode: Block, LearningRate: 0.05, Seed: 1, ShuffleSeed: 7, NumWorkers: 1}
	for _, nR := range []int{3_650, 74_898, 456_250} { // 146 rows a page: 25, 513 and 3 125 pages
		db, err := storage.Open(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		spec, err := data.Generate(db, "b", data.SynthConfig{
			NS: nR, NR: []int{nR}, DS: 4, DR: []int{6}, Seed: 3, WithTarget: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("r1_pages=%d", spec.Rs[0].NumPages()), func(b *testing.B) {
			for b.Loop() {
				if _, err := Train(db, spec, plan.Factorized, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
