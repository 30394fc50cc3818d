package factorml

import (
	"fmt"
	"path/filepath"
	"sync"

	"factorml/internal/serve"
	"factorml/internal/storage"
	"factorml/internal/stream"
	"factorml/internal/wal"
)

// Options configures a database.
type Options struct {
	// NumWorkers is the default worker-pool size for training over this
	// database — TrainGMM/TrainNN and a Stream's absorbs and refresh
	// training alike — used whenever a GMMConfig, NNConfig or StreamPolicy
	// leaves its own NumWorkers at zero: 0 = all CPUs, 1 = sequential,
	// n > 1 = n workers. Note that a per-call NumWorkers of 0 therefore
	// means "inherit this default", not "all CPUs"; pass runtime.NumCPU()
	// explicitly to override a sequential default for one call.
	// The trained model is bit-for-bit identical for every value — the
	// parallel engine's chunk geometry and merge order never depend on the
	// worker count (see internal/parallel).
	NumWorkers int
}

// DB is a database of normalized relations backed by heap files in a
// directory.
type DB struct {
	db   *storage.Database
	opts Options

	// Durability state (nil/zero unless opened WithDurability).
	wal       *wal.Log
	snapEvery int
	walStream *stream.Stream
	// pendingReplay marks a crash boot whose WAL tail has not been
	// replayed yet: set when the directory was not closed cleanly and
	// recovery work exists, cleared once a stream boot has recovered.
	// While set, Close leaves the crash state untouched so a later boot
	// can still recover it.
	pendingReplay bool

	regOnce sync.Once
	reg     *serve.Registry
	regErr  error
}

// DurabilityConfig switches on crash-safe streaming for a database: a
// write-ahead log makes each ingest batch durable (before its ack, unless
// FsyncEvery opens a loss window), and periodic atomic snapshots bound
// recovery time. After a crash, the next Open restores the last committed
// snapshot and the first NewStream/NewServer replays the WAL tail,
// rebuilding tables, incremental statistics, and the model registry to the
// exact pre-crash state — refreshed models are bit-identical to an
// unkilled run.
type DurabilityConfig struct {
	// Dir is the WAL directory. Empty selects "<dbdir>/wal". It may live
	// on a different filesystem than the database directory.
	Dir string

	// FsyncEvery is the group-commit window. At 0 or 1 no ingest is
	// acknowledged before its record is fsynced, and concurrent writers
	// share one fsync. At N > 1 the log fsyncs only every N-th record and
	// acknowledges the others before they are durable: a crash can lose
	// up to the last N-1 acknowledged records, traded for ingest latency.
	FsyncEvery int

	// SnapshotEvery triggers an automatic checkpoint after this many WAL
	// records past the last snapshot. 0 disables automatic checkpoints
	// (explicit Stream.Checkpoint and the boot/close checkpoints still
	// run), which bounds neither WAL growth nor recovery time.
	SnapshotEvery int
}

// OpenOption is an optional setting for Open.
type OpenOption func(*openConfig)

type openConfig struct {
	dur *DurabilityConfig
	// wal's segment size and NoSync stay at their defaults outside tests;
	// Open takes FsyncEvery from dur.
	wal wal.Options
}

// WithDurability opens the database with a write-ahead log and atomic
// snapshots (see DurabilityConfig). A database previously opened without
// durability can be upgraded by passing this option; dropping the option
// later is safe only after a clean Close.
func WithDurability(cfg DurabilityConfig) OpenOption {
	return func(o *openConfig) {
		c := cfg
		o.dur = &c
	}
}

// Open creates or opens a database directory.
//
// With WithDurability, Open also inspects the WAL directory: after a
// crash (no clean-shutdown marker) it first restores the database files
// captured by the last committed snapshot, leaving the WAL tail to be
// replayed by the first NewStream/NewServer on the returned DB.
func Open(dir string, opts Options, extra ...OpenOption) (*DB, error) {
	var oc openConfig
	for _, o := range extra {
		o(&oc)
	}
	var l *wal.Log
	pending := false
	if oc.dur != nil {
		walDir := oc.dur.Dir
		if walDir == "" {
			walDir = filepath.Join(dir, "wal")
		}
		clean, err := wal.IsClean(walDir)
		if err != nil {
			return nil, fmt.Errorf("factorml: checking clean-shutdown marker: %w", err)
		}
		if !clean {
			// Crash boot (or first boot): rewind the database files to
			// the last committed snapshot before opening them. A no-op
			// when no snapshot exists yet.
			if err := stream.RestoreSnapshotFiles(dir, walDir); err != nil {
				return nil, fmt.Errorf("factorml: restoring snapshot: %w", err)
			}
		}
		walOpts := oc.wal
		walOpts.FsyncEvery = oc.dur.FsyncEvery
		l, err = wal.Open(walDir, walOpts)
		if err != nil {
			return nil, fmt.Errorf("factorml: opening WAL: %w", err)
		}
		if !clean {
			_, _, snapOK, err := wal.CurrentSnapshot(walDir)
			if err != nil {
				l.Close()
				return nil, err
			}
			if !snapOK && l.LastLSN() > 0 {
				// Records but no snapshot to anchor them: genesis never
				// checkpointed, so replay has no base state. NewServer
				// commits a boot checkpoint before clearing the marker
				// exactly so this cannot happen in normal operation.
				l.Close()
				return nil, fmt.Errorf("factorml: WAL %s holds %d records but no committed snapshot; cannot recover", walDir, l.LastLSN())
			}
			pending = snapOK || l.LastLSN() > 0
		}
	}
	sdb, err := storage.Open(dir)
	if err != nil {
		if l != nil {
			l.Close()
		}
		return nil, err
	}
	snapEvery := 0
	if oc.dur != nil {
		snapEvery = oc.dur.SnapshotEvery
	}
	return &DB{db: sdb, opts: opts, wal: l, snapEvery: snapEvery, pendingReplay: pending}, nil
}

// WALStats returns the write-ahead log's cumulative counters (all zero
// when durability is off).
func (d *DB) WALStats() WALStats { return d.wal.Stats() }

// Close flushes and closes all tables. With durability on and a live
// stream, Close first commits a checkpoint and marks the shutdown clean,
// so the next Open skips recovery entirely; after a crash boot whose WAL
// tail was never replayed (no stream was built), Close leaves the crash
// state on disk untouched for a later boot to recover.
func (d *DB) Close() error {
	if d.wal == nil {
		return d.db.Close()
	}
	var firstErr error
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	clean := !d.pendingReplay
	if d.walStream != nil {
		if err := d.walStream.Checkpoint(); err != nil {
			keep(fmt.Errorf("factorml: close checkpoint: %w", err))
			clean = false
		}
	}
	keep(d.db.Close())
	// CLEAN means "the live database files are authoritative": mark it
	// only after the file flush above, and never over unreplayed crash
	// state.
	if clean && firstErr == nil {
		keep(wal.MarkClean(d.wal.Dir()))
	}
	keep(d.wal.Close())
	return firstErr
}
