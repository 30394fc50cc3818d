package factorml

import (
	"context"
	"fmt"

	"factorml/internal/stream"
	"factorml/internal/wal"
)

// Stream is a live change feed over one star schema (see internal/stream):
// Ingest appends fact and dimension deltas, and Refresh folds them into
// every attached model incrementally — one warm-start EM step per GMM in
// time proportional to the delta, NN warm-start epochs — publishing
// refreshed models to the database's registry.
type Stream struct {
	st *stream.Stream
}

// NewStream opens a change feed over the star join rooted at fact. The
// database's model registry receives every refreshed model (version
// bump), so a prediction server over the same database serves refreshed
// parameters without a restart.
//
// On a database opened WithDurability, the stream writes every batch to
// the WAL before applying it, and NewStream finishes any pending crash
// recovery: it replays the WAL tail past the last snapshot (re-attaching
// the models the checkpoint had under maintenance) and commits a fresh
// boot checkpoint. Models the replay attached show up in Attached() —
// re-attach only what is missing.
func (d *DB) NewStream(fact *FactTable, pol StreamPolicy) (*Stream, error) {
	reg, err := d.registry()
	if err != nil {
		return nil, err
	}
	ds, err := d.Dataset(fact) // validates and flushes the tables
	if err != nil {
		return nil, err
	}
	pol.NumWorkers = d.workers(pol.NumWorkers)
	st, err := stream.New(d.db, ds.spec, stream.Options{
		Registry:      reg,
		Policy:        pol,
		WAL:           d.wal,
		SnapshotEvery: d.snapEvery,
	})
	if err != nil {
		return nil, err
	}
	if err := d.bootStream(st, nil); err != nil {
		return nil, err
	}
	return &Stream{st: st}, nil
}

// bootStream brings a freshly built stream up — the one place the durable
// boot order is written. Replay the WAL tail past the last snapshot first:
// recovery re-attaches exactly the models the last checkpoint had under
// maintenance, with their incremental statistics intact, so attach (nil
// for none) runs after it and adds only what is missing. Then commit a
// boot checkpoint so the snapshot covers the current state, and clear the
// clean-shutdown marker — from here on a missing marker means "crashed,
// recover on next boot", and a kill leaves recoverable state (snapshot +
// WAL tail) behind. Without durability only attach runs.
func (d *DB) bootStream(st *stream.Stream, attach func() error) error {
	if d.wal != nil {
		if err := st.Recover(context.Background()); err != nil {
			return fmt.Errorf("factorml: WAL recovery: %w", err)
		}
	}
	if attach != nil {
		if err := attach(); err != nil {
			return err
		}
	}
	if d.wal == nil {
		return nil
	}
	if err := st.Checkpoint(); err != nil {
		return fmt.Errorf("factorml: boot checkpoint: %w", err)
	}
	if err := wal.ClearClean(d.wal.Dir()); err != nil {
		return err
	}
	d.walStream = st
	d.pendingReplay = false
	return nil
}

// AttachGMM puts a trained mixture under incremental maintenance (the
// base statistics are built with one pass over the current fact table).
func (s *Stream) AttachGMM(name string, m *GMMModel) error { return s.st.AttachGMM(name, m) }

// AttachNN puts a trained network under incremental maintenance
// (refreshes warm-start the factorized trainer from its parameters).
func (s *Stream) AttachNN(name string, n *NNNetwork) error { return s.st.AttachNN(name, n) }

// Ingest validates and applies one change batch: dimension inserts/updates
// first, then fact appends; nothing is applied when any row fails
// validation. When the batch pushes the pending-row count over
// StreamPolicy.RefreshRows, a refresh runs before Ingest returns.
func (s *Stream) Ingest(b StreamBatch) (IngestResult, error) { return s.st.Ingest(b) }

// Refresh folds everything ingested so far into every attached model — one
// incremental EM step per GMM (cost proportional to the delta,
// bit-identical to recomputing the statistics over base+delta for every
// worker count), NN warm-start epochs — and publishes the refreshed models
// in the registry.
func (s *Stream) Refresh() (RefreshResult, error) { return s.st.Refresh() }

// GMM returns the current refreshed parameters of an attached mixture.
func (s *Stream) GMM(name string) (*GMMModel, error) { return s.st.GMM(name) }

// NN returns the current refreshed parameters of an attached network.
func (s *Stream) NN(name string) (*NNNetwork, error) { return s.st.NN(name) }

// Pending returns the number of fact rows ingested since the last refresh.
func (s *Stream) Pending() int64 { return s.st.Pending() }

// Counters returns a snapshot of the stream's cumulative counters.
func (s *Stream) Counters() StreamCounters { return s.st.Counters() }

// Attached returns the names of the models under incremental maintenance.
func (s *Stream) Attached() []string { return s.st.Attached() }

// Checkpoint commits an atomic snapshot of the database files plus the
// stream's incremental state and truncates the WAL behind it. A no-op
// without durability. Close calls this automatically; call it directly
// to bound recovery time between automatic SnapshotEvery checkpoints.
func (s *Stream) Checkpoint() error { return s.st.Checkpoint() }
