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
// scan is one full pass over the joined relation. A nil onGroupEnd asks
// for the rows alone.
type GroupedScan func(onRow RowFn, onGroupEnd func() error) error

// Path is one strategy's access path, opened and driver-ready: everything
// a trainer needs to run over it, so no trainer asks again which strategy
// it was handed.
type Path struct {
	// Width is the joined feature dimensionality.
	Width int
	// ScanGroups is the path's one grouped scan. It may be run any number
	// of times and yields the same rows in the same order with a group end
	// at every R1 block — identically for every strategy, so a model
	// initialized over one path is the model initialized over another, and
	// Block-mode mini-batches coincide.
	ScanGroups GroupedScan
	// Parts is the factorized access path; nil when the strategy trains
	// over dense rows (Materialized, Streaming).
	Parts *PartScan
	// Shuffle installs a fresh permutation of R1's rows for the scans that
	// follow — the paper's §VI per-epoch key permutation for SGD. It is
	// nil when the row order is fixed on disk (a materialized T).
	Shuffle func(rng *rand.Rand)

	release func() error
}

// Scan streams every joined row, group boundaries ignored.
func (p *Path) Scan(onRow RowFn) error { return p.ScanGroups(onRow, nil) }

// Close releases anything opening the path materialized.
func (p *Path) Close() error {
	if p.release == nil {
		return nil
	}
	return p.release()
}

// Open builds the access path a strategy trains over — the one place a
// strategy value is turned into code. Materialized executes the join and
// writes it into db as table tmp, which Close drops; Streaming re-joins on
// every scan; Factorized does too and additionally hands out the PartScan
// its trainers fold matches through. The block size is the spec's
// (join.Spec.BlockPages) on every path.
func Open(db *storage.Database, spec *join.Spec, s plan.Strategy, tmp string) (*Path, error) {
	var p *Path
	switch s {
	case plan.Materialized:
		src, err := NewMaterializedSource(db, spec, tmp)
		if err != nil {
			return nil, err
		}
		p = &Path{ScanGroups: src.ScanGroups, release: src.Close}
	case plan.Streaming:
		src, err := NewStreamedSource(spec, 0)
		if err != nil {
			return nil, err
		}
		p = &Path{ScanGroups: src.ScanGroups, Shuffle: src.runner.Shuffle}
	case plan.Factorized:
		ps, err := NewPartScan(spec, 0)
		if err != nil {
			return nil, err
		}
		p = &Path{ScanGroups: ps.ScanGroups, Parts: ps, Shuffle: ps.Runner.Shuffle}
	default:
		return nil, fmt.Errorf("factor: strategy %s is not an access path (Auto is resolved by the planner before training)", s)
	}
	p.Width = spec.JoinedWidth() // the constructors validated the spec
	return p, nil
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
}

// NewMaterializedSource executes the join and writes T into db under name
// (step 1 of the M-* algorithms). Close drops the temporary table.
func NewMaterializedSource(db *storage.Database, spec *join.Spec, name string) (*MaterializedSource, error) {
	tbl, counts, err := join.Materialize(db, spec, name)
	if err != nil {
		return nil, err
	}
	return &MaterializedSource{db: db, tbl: tbl, name: name, counts: counts}, nil
}

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
	if onGroupEnd == nil {
		return s.Scan(onRow)
	}
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
}

// newRunner prepares the join runner of the two re-joining paths over a
// private copy of the spec. blockPages fills in a block size the spec
// leaves at zero; only the benchmark harness passes one (Open passes 0 —
// the spec is where a block size is set).
func newRunner(spec *join.Spec, blockPages int) (*join.Runner, error) {
	sp := *spec
	if sp.BlockPages == 0 {
		sp.BlockPages = blockPages
	}
	return join.NewRunner(&sp)
}

// NewStreamedSource prepares the join runner (see newRunner for blockPages).
func NewStreamedSource(spec *join.Spec, blockPages int) (*StreamedSource, error) {
	runner, err := newRunner(spec, blockPages)
	if err != nil {
		return nil, err
	}
	return &StreamedSource{runner: runner}, nil
}

// Scan re-executes the join, assembling each joined feature vector.
func (s *StreamedSource) Scan(onRow RowFn) error { return s.ScanGroups(onRow, nil) }

// ScanGroups re-executes the join with block boundaries.
func (s *StreamedSource) ScanGroups(onRow RowFn, onGroupEnd func() error) error {
	return scanJoin(s.runner, onRow, onGroupEnd)
}

// scanJoin is a GroupedScan over a running join: join.StreamWith's rows
// without their sid.
func scanJoin(runner *join.Runner, onRow RowFn, onGroupEnd func() error) error {
	return join.StreamWith(runner, func(_ int64, x []float64, y float64) error {
		return onRow(x, y)
	}, onGroupEnd)
}

// Close is a no-op (nothing was materialized).
func (s *StreamedSource) Close() error { return nil }
