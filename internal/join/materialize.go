package join

import (
	"fmt"

	"factorml/internal/storage"
)

// JoinedSchema builds the schema of the denormalized table
// T(sid, [XS XR1 … XRq], Y?).
func JoinedSchema(sp *Spec, name string) *storage.Schema {
	out := &storage.Schema{
		Name:      name,
		Keys:      []string{sp.S.Schema().Keys[0]},
		HasTarget: sp.S.Schema().HasTarget,
	}
	add := func(prefix string, cols []string) {
		for _, c := range cols {
			out.Features = append(out.Features, prefix+"."+c)
		}
	}
	add(sp.S.Schema().Name, sp.S.Schema().Features)
	// A table reached along two reference paths contributes its columns
	// once per path; later occurrences are numbered to keep names unique.
	seen := make(map[string]int)
	for _, r := range sp.Rs {
		name := r.Schema().Name
		if seen[name]++; seen[name] > 1 {
			name = fmt.Sprintf("%s#%d", name, seen[name])
		}
		add(name, r.Schema().Features)
	}
	return out
}

// Materialize executes the star join and writes the denormalized result T
// into db under the given name. This is step 1 of the M-* algorithms. The
// page writes of T are charged to the database's page counters.
//
// The returned counts slice holds the number of joined tuples produced per
// R1 block, so a consumer of T can reconstruct the block boundaries (the
// M-NN trainer uses this to form the same mini-batches as S-NN/F-NN).
func Materialize(db *storage.Database, sp *Spec, name string) (*storage.Table, []int64, error) {
	runner, err := NewRunner(sp)
	if err != nil {
		return nil, nil, err
	}
	tTbl, err := db.CreateTable(JoinedSchema(sp, name))
	if err != nil {
		return nil, nil, err
	}
	out := storage.Tuple{Keys: make([]int64, 1)}
	var counts []int64
	inBlock := int64(0)
	err = StreamWith(runner, func(sid int64, x []float64, y float64) error {
		out.Keys[0], out.Features, out.Target = sid, x, y
		inBlock++
		return tTbl.Append(&out)
	}, func() error {
		counts = append(counts, inBlock)
		inBlock = 0
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if err := tTbl.Flush(); err != nil {
		return nil, nil, err
	}
	return tTbl, counts, nil
}

// Stream executes the star join and delivers fully concatenated feature
// vectors to fn, without materializing T. This is the access path of the
// S-* algorithms. The vector passed to fn is reused across calls.
func Stream(sp *Spec, fn func(sid int64, x []float64, y float64) error) error {
	runner, err := NewRunner(sp)
	if err != nil {
		return err
	}
	return StreamWith(runner, fn, nil)
}

// StreamWith is Stream over an existing runner (so repeated passes reuse the
// resident dimension tables, as S-* algorithms do across EM iterations) —
// the one loop that assembles joined rows from a running join. onBlockEnd,
// when non-nil, runs after the last row of every R1 block, empty blocks
// included: the group boundary Block-mode mini-batches are cut at.
func StreamWith(runner *Runner, fn func(sid int64, x []float64, y float64) error, onBlockEnd func() error) error {
	d := runner.spec.JoinedWidth()
	x := make([]float64, d)
	var block []*storage.Tuple
	return runner.Run(Callbacks{
		OnBlockStart: func(b []*storage.Tuple) error { block = b; return nil },
		OnMatch: func(s *storage.Tuple, r1Idx int, resIdx []int) error {
			x = runner.AppendRow(x[:0], s, block[r1Idx], resIdx)
			if n := len(x); n != d {
				return fmt.Errorf("join: assembled %d features, want %d", n, d)
			}
			return fn(s.Keys[0], x, s.Target)
		},
		OnBlockEnd: onBlockEnd,
	})
}
