package factor

import (
	"fmt"

	"factorml/internal/core"
	"factorml/internal/join"
	"factorml/internal/plan"
	"factorml/internal/storage"
)

// RowFn receives one joined row: the concatenated feature vector (reused
// between calls — clone to retain) and the fact tuple's target (zero when
// the fact table carries none).
type RowFn func(x []float64, y float64) error

// Open builds the access path a strategy trains over — the one place a
// strategy value is turned into code, and the one place the factorized set
// is chosen: every direct dimension or none. Materialized executes the join
// and writes it into db as table tmp, which Close drops, and reads T back
// (join.NewMaterializedRunner); Streaming re-joins on every pass and gathers
// each match's dimension rows into its fact part (join.NewGatherRunner);
// Factorized re-joins and hands the dimension rows over for the trainers to
// cache (NewPartScan). The first two factorize nothing: their Direct is the
// one-part partition. The block size is the spec's (join.Spec.BlockPages)
// on every path.
func Open(db *storage.Database, spec *join.Spec, s plan.Strategy, tmp string) (*PartScan, error) {
	switch s {
	case plan.Materialized:
		src, err := NewMaterializedSource(db, spec, tmp)
		if err != nil {
			return nil, err
		}
		ps := newPartScan(spec, src.runner, false)
		ps.release = src.Close
		return ps, nil
	case plan.Streaming:
		runner, err := join.NewGatherRunner(ownSpec(spec, 0))
		if err != nil {
			return nil, err
		}
		ps := newPartScan(spec, runner, false)
		ps.Shuffle = runner.Shuffle
		return ps, nil
	case plan.Factorized:
		return NewPartScan(spec, 0)
	}
	return nil, fmt.Errorf("factor: strategy %s is not an access path (Auto is resolved by the planner before training)", s)
}

// newPartScan pairs a runner with the partitions of spec's joined row: the
// trainers' Direct is the fact part and one part per direct dimension when
// the runner factorizes them, the one-part partition when it does not.
func newPartScan(spec *join.Spec, runner *join.Runner, factorized bool) *PartScan {
	dims := []int{spec.S.Schema().NumFeatures()}
	for _, r := range spec.Rs {
		dims = append(dims, r.Schema().NumFeatures())
	}
	direct := []int{spec.JoinedWidth()}
	if factorized {
		direct = append([]int{dims[0]}, spec.DirectWidths()...)
	}
	return &PartScan{runner: runner, P: core.NewPartition(dims), Direct: core.NewPartition(direct)}
}

// MaterializedSource reads joined rows back from a denormalized table T
// written by join.Materialize — the access path of the M-* algorithms,
// through a runner over T whose blocks are the materializer's per-block
// tuple counts.
type MaterializedSource struct {
	db     *storage.Database
	name   string
	runner *join.Runner
}

// NewMaterializedSource executes the join and writes T into db under name
// (step 1 of the M-* algorithms). Close drops the temporary table.
func NewMaterializedSource(db *storage.Database, spec *join.Spec, name string) (*MaterializedSource, error) {
	tbl, counts, err := join.Materialize(db, spec, name)
	if err != nil {
		return nil, err
	}
	return &MaterializedSource{db: db, name: name, runner: join.NewMaterializedRunner(tbl, counts)}, nil
}

// Scan reads T front to back.
func (s *MaterializedSource) Scan(onRow RowFn) error { return scanJoin(s.runner, onRow) }

// Close drops the materialized table.
func (s *MaterializedSource) Close() error { return s.db.DropTable(s.name) }

// StreamedSource re-executes the block-nested-loops join on every scan.
// The resident dimension relations are loaded once and reused across scans.
type StreamedSource struct {
	runner *join.Runner
}

// ownSpec returns the private copy of spec a runner is built over.
// blockPages fills in a block size the spec leaves at zero; only the
// benchmark harness passes one (Open passes 0 — the spec is where a block
// size is set).
func ownSpec(spec *join.Spec, blockPages int) *join.Spec {
	sp := *spec
	if sp.BlockPages == 0 {
		sp.BlockPages = blockPages
	}
	return &sp
}

// NewStreamedSource prepares the join runner (see ownSpec for blockPages).
func NewStreamedSource(spec *join.Spec, blockPages int) (*StreamedSource, error) {
	runner, err := join.NewRunner(ownSpec(spec, blockPages))
	if err != nil {
		return nil, err
	}
	return &StreamedSource{runner: runner}, nil
}

// Scan re-executes the join, assembling each joined feature vector.
func (s *StreamedSource) Scan(onRow RowFn) error { return scanJoin(s.runner, onRow) }

// scanJoin streams a runner's joined rows: join.StreamWith's rows without
// their sid.
func scanJoin(runner *join.Runner, onRow RowFn) error {
	return join.StreamWith(runner, func(_ int64, x []float64, y float64) error {
		return onRow(x, y)
	}, nil)
}
