package join

import (
	"fmt"
	"testing"

	"factorml/internal/storage"
)

// matchKey flattens one joined tuple into a comparable string.
func matchKey(s *storage.Tuple, pos []int) string {
	return fmt.Sprintf("sid=%d pos=%v xs=%v y=%v", s.Keys[0], pos, s.Features, s.Target)
}

// runSequential collects the match stream of Runner.Run.
func runSequential(t *testing.T, spec *Spec) []string {
	t.Helper()
	runner, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	err = runner.Run(Callbacks{
		OnMatch: func(s *storage.Tuple, pos []int) error {
			out = append(out, matchKey(s, pos))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runParallelMatches collects the merged match stream of RunParallel.
func runParallelMatches(t *testing.T, spec *Spec, workers, chunkRows int) []string {
	t.Helper()
	runner, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	type state struct{ keys []string }
	err = RunParallel(runner, workers, chunkRows, ParallelCallbacks[state]{
		OnMatchChunk: func(s *state, matches []Match) error {
			for _, m := range matches {
				s.keys = append(s.keys, matchKey(m.S, m.Pos))
			}
			return nil
		},
		OnChunkMerged: func(s *state) error {
			out = append(out, s.keys...)
			s.keys = s.keys[:0]
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRunParallelMatchesSequential asserts the parallel probe delivers the
// exact sequential match stream — same tuples, same deterministic order —
// for every worker count, on both single- and multi-block, binary and
// multi-way joins.
func TestRunParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name       string
		nS, dS     int
		nR, dR     []int
		blockPages int
	}{
		{"binary/oneblock", 300, 3, []int{40}, []int{2}, 0},
		{"binary/multiblock", 900, 2, []int{600}, []int{3}, 1},
		{"multiway/multiblock", 800, 2, []int{600, 30}, []int{2, 2}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t)
			spec := buildTables(t, db, tc.nS, tc.dS, tc.nR, tc.dR)
			spec.BlockPages = tc.blockPages
			want := runSequential(t, spec)
			if len(want) == 0 {
				t.Fatal("sequential join produced no matches")
			}
			for _, workers := range []int{1, 2, 4} {
				for _, chunk := range []int{0, 7} {
					got := runParallelMatches(t, spec, workers, chunk)
					if len(got) != len(want) {
						t.Fatalf("workers=%d chunk=%d: %d matches, want %d", workers, chunk, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("workers=%d chunk=%d: match %d = %q, want %q", workers, chunk, i, got[i], want[i])
						}
					}
				}
			}
		})
	}
}

// TestRunParallelBlockBarriers asserts OnBlockStart/OnBlockEnd run once per
// block, in order, with all of the block's chunks merged in between.
func TestRunParallelBlockBarriers(t *testing.T) {
	db := openDB(t)
	spec := buildTables(t, db, 900, 2, []int{600}, []int{3})
	spec.BlockPages = 1
	runner, err := NewRunner(spec)
	if err != nil {
		t.Fatal(err)
	}
	nBlocks := runner.NumBlocks()
	if nBlocks < 2 {
		t.Fatalf("want a multi-block join, got %d blocks", nBlocks)
	}
	starts, ends, merged := 0, 0, 0
	err = RunParallel(runner, 4, 16, ParallelCallbacks[struct{}]{
		OnBlockStart: func([]Arena) error {
			if starts != ends {
				t.Errorf("block start %d before block %d ended", starts, ends)
			}
			starts++
			return nil
		},
		OnMatchChunk: func(*struct{}, []Match) error { return nil },
		OnChunkMerged: func(*struct{}) error {
			merged++
			return nil
		},
		OnBlockEnd: func() error {
			ends++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(starts) != nBlocks || int64(ends) != nBlocks {
		t.Fatalf("starts=%d ends=%d, want %d each", starts, ends, nBlocks)
	}
	if merged == 0 {
		t.Fatal("no chunks merged")
	}
}

// TestRunParallelMatchesValidUntilMerged pins Match's lifetime: a fold may
// keep the matches slice in its accumulator, and the ordered merge still
// reads the tuples and partner indexes the fold saw — no later chunk has
// refilled the chunk object — for every worker count, on a multi-block
// multi-way join with small chunks so many are in flight.
func TestRunParallelMatchesValidUntilMerged(t *testing.T) {
	db := openDB(t)
	spec := buildTables(t, db, 800, 2, []int{600, 30}, []int{2, 2})
	spec.BlockPages = 1
	want := runSequential(t, spec)
	for _, workers := range []int{1, 2, 4} {
		runner, err := NewRunner(spec)
		if err != nil {
			t.Fatal(err)
		}
		type state struct {
			matches []Match
			keys    []string
		}
		var got []string
		err = RunParallel(runner, workers, 7, ParallelCallbacks[state]{
			OnMatchChunk: func(s *state, matches []Match) error {
				s.matches = matches
				for _, m := range matches {
					s.keys = append(s.keys, matchKey(m.S, m.Pos))
				}
				return nil
			},
			OnChunkMerged: func(s *state) error {
				for i, m := range s.matches {
					if key := matchKey(m.S, m.Pos); key != s.keys[i] {
						t.Errorf("workers=%d: match reads %q at merge, was %q in the fold", workers, key, s.keys[i])
					}
				}
				got = append(got, s.keys...)
				s.matches, s.keys = nil, s.keys[:0]
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d matches, want %d", workers, len(got), len(want))
		}
	}
}
