package factor

import (
	"fmt"
	"math/rand"

	"factorml/internal/join"
	"factorml/internal/plan"
	"factorml/internal/storage"
)

// RowFn receives one joined row: the concatenated feature vector (reused
// between calls — clone to retain) and the fact tuple's target (zero when
// the fact table carries none).
type RowFn func(x []float64, y float64) error

// GroupedScan streams every joined row in deterministic order and invokes
// onGroupEnd at each R1-block boundary, so Block-mode mini-batches coincide
// across strategies. Either callback may rely on the other's ordering; a
// scan is one full pass over the joined relation.
type GroupedScan func(onRow RowFn, onGroupEnd func() error) error

// Rows is what all three access paths offer: a re-scannable stream of the
// joined rows. It may be scanned any number of times and every scan yields
// the identical row order — the same order for every strategy, so a model
// initialized over one access path is the model initialized over another.
type Rows interface {
	// Width is the joined feature dimensionality.
	Width() int
	// Scan streams every joined row.
	Scan(onRow RowFn) error
	// Close releases anything the access path materialized.
	Close() error
}

// Source is the access path of the two dense strategies, Materialized and
// Streaming: Rows with the R1-block boundaries exposed.
type Source interface {
	Rows
	// ScanGroups streams every joined row with group boundaries.
	ScanGroups(onRow RowFn, onGroupEnd func() error) error
}

// Open builds the access path a strategy trains over — the one place a
// strategy value is turned into code: a MaterializedSource (the join is
// executed and written into db as table tmp, which Close drops), a
// StreamedSource, or the factorized *PartScan. A trainer then runs its
// dense driver over a Source and its factorized one over a *PartScan.
// blockPages overrides the spec's block size when the spec leaves it zero.
func Open(db *storage.Database, spec *join.Spec, s plan.Strategy, blockPages int, tmp string) (Rows, error) {
	switch s {
	case plan.Materialized:
		return NewMaterializedSource(db, spec, tmp)
	case plan.Streaming:
		return NewStreamedSource(spec, blockPages)
	case plan.Factorized:
		return NewPartScan(spec, blockPages)
	default:
		return nil, fmt.Errorf("factor: strategy %s is not an access path (Auto is resolved by the planner before training)", s)
	}
}

// MaterializedSource reads joined rows back from a denormalized table T
// written by join.Materialize — the access path of the M-* algorithms. The
// per-block tuple counts recorded at materialization time let ScanGroups
// reconstruct the exact block boundaries of the on-the-fly join.
type MaterializedSource struct {
	db     *storage.Database
	tbl    *storage.Table
	name   string
	counts []int64
	width  int
}

// NewMaterializedSource executes the join and writes T into db under name
// (step 1 of the M-* algorithms). Close drops the temporary table.
func NewMaterializedSource(db *storage.Database, spec *join.Spec, name string) (*MaterializedSource, error) {
	tbl, counts, err := join.Materialize(db, spec, name)
	if err != nil {
		return nil, err
	}
	return &MaterializedSource{
		db: db, tbl: tbl, name: name, counts: counts,
		width: spec.JoinedWidth(),
	}, nil
}

// Width returns the joined feature dimensionality.
func (s *MaterializedSource) Width() int { return s.width }

// Scan reads T front to back.
func (s *MaterializedSource) Scan(onRow RowFn) error {
	sc := s.tbl.NewScanner()
	for sc.Next() {
		tp := sc.Tuple()
		if err := onRow(tp.Features, tp.Target); err != nil {
			return err
		}
	}
	return sc.Err()
}

// ScanGroups reads T and fires onGroupEnd at the recorded block
// boundaries, including runs of empty blocks (a block whose keys matched
// no fact tuple still ends a mini-batch in the streamed join).
func (s *MaterializedSource) ScanGroups(onRow RowFn, onGroupEnd func() error) error {
	sc := s.tbl.NewScanner()
	blk := 0
	// Leading empty blocks fire their boundaries before the first row —
	// without this the `inBlock == counts[blk]` check below (inBlock >= 1
	// once rows flow) could never match a zero count and every later
	// boundary would land one block late.
	for blk < len(s.counts) && s.counts[blk] == 0 {
		if err := onGroupEnd(); err != nil {
			return err
		}
		blk++
	}
	var inBlock int64
	for sc.Next() {
		tp := sc.Tuple()
		if err := onRow(tp.Features, tp.Target); err != nil {
			return err
		}
		inBlock++
		for blk < len(s.counts) && inBlock == s.counts[blk] {
			if err := onGroupEnd(); err != nil {
				return err
			}
			inBlock = 0
			blk++
			// Skip over empty blocks (possible when a block's keys match
			// no fact tuples).
			for blk < len(s.counts) && s.counts[blk] == 0 {
				if err := onGroupEnd(); err != nil {
					return err
				}
				blk++
			}
		}
	}
	return sc.Err()
}

// Close drops the materialized table.
func (s *MaterializedSource) Close() error { return s.db.DropTable(s.name) }

// StreamedSource re-executes the block-nested-loops join on every scan —
// the access path of the S-* algorithms. The resident dimension relations
// are loaded once and reused across scans.
type StreamedSource struct {
	runner *join.Runner
	width  int
	// xbuf is the assembled-row buffer ScanGroups reuses across scans; a
	// Source is scanned sequentially (EM makes one pass per iteration),
	// so one buffer per source suffices and the per-scan allocation is gone.
	xbuf []float64
}

// NewStreamedSource prepares the join runner. blockPages overrides the
// spec's block size when the spec leaves it at zero.
func NewStreamedSource(spec *join.Spec, blockPages int) (*StreamedSource, error) {
	sp := *spec
	if sp.BlockPages == 0 {
		sp.BlockPages = blockPages
	}
	runner, err := join.NewRunner(&sp)
	if err != nil {
		return nil, err
	}
	w := sp.JoinedWidth()
	return &StreamedSource{runner: runner, width: w, xbuf: make([]float64, w)}, nil
}

// Width returns the joined feature dimensionality.
func (s *StreamedSource) Width() int { return s.width }

// Scan re-executes the join, assembling each joined feature vector.
func (s *StreamedSource) Scan(onRow RowFn) error {
	return join.StreamWith(s.runner, func(_ int64, x []float64, y float64) error {
		return onRow(x, y)
	})
}

// ScanGroups re-executes the join with block boundaries.
func (s *StreamedSource) ScanGroups(onRow RowFn, onGroupEnd func() error) error {
	x := s.xbuf
	var block []*storage.Tuple
	return s.runner.Run(join.Callbacks{
		OnBlockStart: func(b []*storage.Tuple) error { block = b; return nil },
		OnMatch: func(st *storage.Tuple, r1Idx int, resIdx []int) error {
			x = s.runner.AppendRow(x[:0], st, block[r1Idx], resIdx)
			if n := len(x); n != s.width {
				return fmt.Errorf("factor: assembled %d features, want %d", n, s.width)
			}
			return onRow(x, st.Target)
		},
		OnBlockEnd: onGroupEnd,
	})
}

// Shuffle installs a per-scan permutation of R1's rows (the paper's §VI
// per-epoch key permutation for SGD); nil restores sequential order. Only
// the streamed source supports this — a materialized T is fixed on disk.
func (s *StreamedSource) Shuffle(rng *rand.Rand) { s.runner.Shuffle(rng) }

// Close is a no-op (nothing was materialized).
func (s *StreamedSource) Close() error { return nil }
