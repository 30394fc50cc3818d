package stream

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"factorml/internal/codec"
	"factorml/internal/durable"
	"factorml/internal/gmm"
	"factorml/internal/monitor"
	"factorml/internal/nn"
	"factorml/internal/plan"
	"factorml/internal/serve"
	"factorml/internal/storage"
	"factorml/internal/wal"
)

// Checkpointing and recovery. A checkpoint stages a consistent image of
// everything the WAL protects into a wal.Snapshot directory:
//
//	snap-XXXX/
//	  manifest.json        what was staged and how to restore it
//	  stream-state.json    maintained model state (statistics, monitor…)
//	  files/               catalog, dimension heaps, model blobs
//
// The fact heap is the one file NOT copied: it is append-only and can be
// huge, so the manifest records its full-page count plus the raw bytes
// of the buffered tail page. Restore truncates the live heap to the
// recorded page boundary and re-appends the saved tail page — correct
// even though post-checkpoint appends rewrite that tail page in place.
//
// Recovery is then: restore the snapshot files over the database
// directory (RestoreSnapshotFiles, before storage.Open), load
// stream-state.json (Stream.Recover), and replay every WAL record past
// the snapshot LSN through the exact same ingest/refresh code paths the
// live system uses — which, by the repo-wide determinism guarantee,
// rebuilds bit-identical model state.
//
// Files are replaced through internal/durable: staged ones unsynced, as
// Snapshot.Commit syncs the tree; restored ones fsynced, as a later clean
// close vouches for them. The fact heap alone is edited in place.

const (
	// Format 5 stores a mixture's sums over the joined row about its origin,
	// and no per-tuple sums; older formats load without their statistics.
	streamStateFormat = 5
	manifestFormat    = 1

	manifestFile    = "manifest.json"
	streamStateFile = "stream-state.json"
	stagedFilesDir  = "files"
)

// --- serialized stream state ----------------------------------------------

// gmmStatsState is one attached mixture's maintained statistics. Every
// blob is a run of little-endian 64-bit words — floats as their IEEE-754
// bits, so the sums restore bit-exactly, NaN and ±Inf included — which
// encoding/json writes as one base64 string.
type gmmStatsState struct {
	K      int    `json:"k"`
	Rows   int64  `json:"rows"`
	Origin []byte `json:"origin"` // the K×D point the sums are taken about
	Done   []byte `json:"done"`   // the sums over the complete chunks
	Open   []byte `json:"open"`   // and over the trailing partial one
}

// walModelState is one attached model: parameters (the gmm/nn JSON
// serialization, exact for finite floats) plus maintenance state. Plan is
// the strategy decision an NN's refreshes reuse, restored verbatim: a
// recovered stream that planned afresh against the grown tables could pick
// another strategy than the run it recovers, and with it other bits.
type walModelState struct {
	Name     string          `json:"name"`
	Kind     string          `json:"kind"`
	Dirty    bool            `json:"dirty"`
	LastRows int64           `json:"last_rows"`
	Params   json.RawMessage `json:"params"`
	Stats    *gmmStatsState  `json:"stats,omitempty"`
	Plan     *plan.Plan      `json:"plan,omitempty"`
}

// walStreamState is everything a Stream must carry across a crash that
// is not derivable from the database files: attached models with their
// incremental statistics, the refresh cadence position, counters, and
// the monitor's live sketches.
type walStreamState struct {
	Format     int             `json:"format"`
	RefreshSeq uint64          `json:"refresh_seq"`
	Pending    int64           `json:"pending"`
	Counters   Counters        `json:"counters"`
	Models     []walModelState `json:"models"`
	Monitor    *monitor.State  `json:"monitor,omitempty"`
}

// unpackFloats fills dst from a blob of exactly len(dst) floats.
func unpackFloats(dst []float64, b []byte) error {
	r := codec.NewReader(b)
	r.F64s("checkpoint sums", dst)
	if err := r.Done(); err != nil {
		return fmt.Errorf("stream: checkpoint blob of %d bytes where %d floats belong: %w", len(b), len(dst), err)
	}
	return nil
}

func (st *GMMStats) state() *gmmStatsState {
	return &gmmStatsState{K: st.k, Rows: st.rows, Origin: codec.AppendF64s(nil, st.done.Origin()),
		Done: codec.AppendF64s(nil, st.done.Data()), Open: codec.AppendF64s(nil, st.open.Data())}
}

// restore loads checkpointed statistics over a fact table of factRows rows.
func (st *GMMStats) restore(s *gmmStatsState, factRows int64) error {
	if s == nil || s.K != st.k || s.Rows < 0 || s.Rows > factRows {
		return fmt.Errorf("stream: checkpoint statistics missing or not shaped like this model's (K=%d) over %d fact rows", st.k, factRows)
	}
	st.rows = s.Rows
	if err := unpackFloats(st.done.Origin(), s.Origin); err != nil {
		return err
	}
	copy(st.open.Origin(), st.done.Origin())
	if err := unpackFloats(st.done.Data(), s.Done); err != nil {
		return err
	}
	return unpackFloats(st.open.Data(), s.Open)
}

// stateLocked captures the stream's full recovery state. Caller holds mu.
func (s *Stream) stateLocked() (*walStreamState, error) {
	st := &walStreamState{Format: streamStateFormat, RefreshSeq: s.refreshSeq}
	s.cmu.Lock()
	st.Pending = s.pending
	st.Counters = s.counters
	s.cmu.Unlock()
	st.Counters.IngestRejections = s.ingestRejections.Load()
	names := make([]string, 0, len(s.models))
	for name := range s.models {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := s.models[name]
		ms := walModelState{Name: name, Kind: string(m.kind), Dirty: m.dirty, LastRows: m.lastRows}
		var buf bytes.Buffer
		switch m.kind {
		case serve.KindGMM:
			if err := m.gmdl.Save(&buf); err != nil {
				return nil, err
			}
			ms.Stats = m.stats.state()
		case serve.KindNN:
			if err := m.net.Save(&buf); err != nil {
				return nil, err
			}
			ms.Plan = m.plan
		default:
			return nil, fmt.Errorf("stream: cannot checkpoint model %q of kind %q", name, m.kind)
		}
		ms.Params = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
		st.Models = append(st.Models, ms)
	}
	st.Monitor = s.mon.Snapshot()
	return st, nil
}

// restoreStateLocked rebuilds the stream from a checkpoint's
// stream-state.json. Caller holds mu; the database files must already be
// the snapshot's (RestoreSnapshotFiles ran before storage.Open on a crash
// boot).
//
// The statistics of an older format are not migrated: its mixtures come
// back with empty statistics and marked dirty, so their first refresh
// rebuilds them from the fact table — the rebaseline a dimension update
// forces anyway.
func (s *Stream) restoreStateLocked(ctx context.Context, raw []byte) error {
	var st walStreamState
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("stream: parsing checkpoint state: %w", err)
	}
	if st.Format < 1 || st.Format > streamStateFormat {
		return fmt.Errorf("stream: unsupported checkpoint state format %d", st.Format)
	}
	s.refreshSeq = st.RefreshSeq
	dropped := 0
	for _, ms := range st.Models {
		m := &attached{name: ms.Name, kind: serve.Kind(ms.Kind), dirty: ms.Dirty, lastRows: ms.LastRows, plan: ms.Plan}
		switch m.kind {
		case serve.KindGMM:
			gm, err := gmm.LoadModel(bytes.NewReader(ms.Params))
			if err == nil {
				err = s.fitsGMM(ms.Name, gm)
			}
			if err != nil {
				return fmt.Errorf("stream: restoring model %q: %w", ms.Name, err)
			}
			m.gmdl = gm
			m.stats = NewGMMStats(s.rv, s.p.Dims[0], gm)
			if st.Format < streamStateFormat {
				m.dirty = true
				dropped++
			} else if err := m.stats.restore(ms.Stats, s.spec.S.NumTuples()); err != nil {
				return fmt.Errorf("stream: restoring model %q: %w", ms.Name, err)
			}
		case serve.KindNN:
			net, err := nn.LoadNetwork(bytes.NewReader(ms.Params))
			if err == nil {
				err = s.fitsNN(ms.Name, net)
			}
			if err != nil {
				return fmt.Errorf("stream: restoring model %q: %w", ms.Name, err)
			}
			m.net = net
		default:
			return fmt.Errorf("stream: checkpointed model %q has unknown kind %q", ms.Name, ms.Kind)
		}
		s.models[ms.Name] = m
	}
	if dropped > 0 {
		s.log.WarnContext(ctx, "checkpoint predates the current format: maintained GMM statistics dropped, first refresh rebaselines",
			"format", st.Format, "models", dropped)
	}
	s.mon.Restore(st.Monitor)
	s.cmu.Lock()
	s.pending = st.Pending
	s.counters = st.Counters
	s.counters.AttachedModels = len(s.models)
	s.cmu.Unlock()
	s.ingestRejections.Store(st.Counters.IngestRejections)
	s.snapshotPlansLocked()
	return nil
}

// --- file checkpoint -------------------------------------------------------

// factManifest records how to restore the (append-only, never copied)
// fact heap: truncate to FullPages, then re-append the saved tail page.
type factManifest struct {
	File      string `json:"file"`
	FullPages int64  `json:"full_pages"`
	TailPage  string `json:"tail_page,omitempty"` // base64 of one raw page
}

// walManifest indexes a snapshot directory: Files are database-dir-
// relative paths staged whole under files/; Fact (when present)
// restores the fact heap in place.
type walManifest struct {
	Format int           `json:"format"`
	Files  []string      `json:"files"`
	Fact   *factManifest `json:"fact,omitempty"`
}

// checkpointLocked takes a full checkpoint: flush + fsync the database,
// stage the snapshot (dimension heaps whole, fact heap by reference,
// stream state), and commit it — after which the WAL prefix it covers
// is pruned. Caller holds mu.
func (s *Stream) checkpointLocked() error {
	if s.wal == nil {
		return nil
	}
	lsn := s.wal.LastLSN()
	if err := s.db.CheckpointSync(); err != nil {
		return err
	}
	snap, err := s.wal.BeginSnapshot()
	if err != nil {
		return err
	}
	if err := s.stageLocked(snap.Dir); err != nil {
		snap.Abort()
		return err
	}
	if err := snap.Commit(lsn); err != nil {
		return err
	}
	s.cmu.Lock()
	s.counters.Checkpoints++
	s.cmu.Unlock()
	return nil
}

// stageLocked copies the catalog, the blobs and the dimension heaps under
// files/ and writes the manifest and the stream state. Caller holds mu.
func (s *Stream) stageLocked(snapDir string) error {
	files := []string{"catalog.json"}
	blobNames, err := s.db.BlobNames()
	if err != nil {
		return err
	}
	for _, name := range blobNames {
		files = append(files, filepath.Join("blobs", name))
	}
	// Dimension heaps are staged whole (they are small and updated in
	// place); snowflake positions can share a table, so dedup by name.
	seen := map[string]bool{}
	for _, r := range s.spec.Rs {
		if rel := filepath.Base(r.Path()); !seen[rel] {
			seen[rel] = true
			files = append(files, rel)
		}
	}
	stageDir := filepath.Join(snapDir, stagedFilesDir)
	for _, rel := range files {
		dst := filepath.Join(stageDir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return fmt.Errorf("stream: staging %s: %w", rel, err)
		}
		if err := durable.CopyFile(dst, filepath.Join(s.db.Dir(), rel), false); err != nil {
			return fmt.Errorf("stream: staging %s: %w", rel, err)
		}
	}
	fullPages, tailPage := s.spec.S.TailPageState()
	fm := &factManifest{File: filepath.Base(s.spec.S.Path()), FullPages: fullPages}
	if tailPage != nil {
		fm.TailPage = base64.StdEncoding.EncodeToString(tailPage)
	}
	man := walManifest{Format: manifestFormat, Files: files, Fact: fm}
	if err := durable.WriteFile(filepath.Join(snapDir, manifestFile), false, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(&man)
	}); err != nil {
		return err
	}
	st, err := s.stateLocked()
	if err != nil {
		return err
	}
	// Compact JSON, streamed: the state runs to megabytes nobody reads, and
	// indenting cost more than encoding. Older indented files still load.
	return durable.WriteFile(filepath.Join(snapDir, streamStateFile), false, func(w io.Writer) error {
		return json.NewEncoder(w).Encode(st)
	})
}

// Checkpoint takes a checkpoint now (regardless of SnapshotEvery). It
// is a no-op without a WAL.
func (s *Stream) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.checkpointLocked()
}

// maybeCheckpointLocked checkpoints when the WAL has grown by
// SnapshotEvery records since the last snapshot. Caller holds mu.
func (s *Stream) maybeCheckpointLocked() error {
	if s.wal == nil || s.replaying || s.snapEvery <= 0 {
		return nil
	}
	if s.wal.LastLSN()-s.wal.SnapshotLSN() < int64(s.snapEvery) {
		return nil
	}
	return s.checkpointLocked()
}

// --- restore ---------------------------------------------------------------

// RestoreSnapshotFiles rewinds a database directory to the committed
// snapshot in walDir: staged files are copied back whole, the model
// blob directory is cleared of post-checkpoint writes first, and the
// fact heap is truncated to the recorded page boundary with the saved
// tail page re-appended. It must run before storage.Open on a crash
// boot, and is idempotent; with no committed snapshot it is a no-op.
func RestoreSnapshotFiles(dbDir, walDir string) error {
	snapPath, _, ok, err := wal.CurrentSnapshot(walDir)
	if err != nil {
		return err
	}
	if !ok {
		return nil
	}
	raw, err := os.ReadFile(filepath.Join(snapPath, manifestFile))
	if err != nil {
		return fmt.Errorf("stream: reading snapshot manifest: %w", err)
	}
	var man walManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("stream: parsing snapshot manifest: %w", err)
	}
	if man.Format != manifestFormat {
		return fmt.Errorf("stream: unsupported snapshot manifest format %d", man.Format)
	}
	// Clear post-checkpoint blobs (e.g. model versions saved after the
	// snapshot) so the registry reloads exactly the checkpointed set.
	if err := os.RemoveAll(filepath.Join(dbDir, "blobs")); err != nil {
		return fmt.Errorf("stream: clearing stale blobs: %w", err)
	}
	for _, rel := range man.Files {
		dst := filepath.Join(dbDir, rel)
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return fmt.Errorf("stream: restoring %s: %w", rel, err)
		}
		if err := durable.CopyFile(dst, filepath.Join(snapPath, stagedFilesDir, rel), true); err != nil {
			return fmt.Errorf("stream: restoring %s: %w", rel, err)
		}
	}
	durable.SyncDir(dbDir) // the blob directory removed and recreated above
	if man.Fact != nil {
		if err := restoreFactHeap(filepath.Join(dbDir, man.Fact.File), man.Fact); err != nil {
			return err
		}
	}
	return nil
}

func restoreFactHeap(path string, fm *factManifest) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("stream: restoring fact heap: %w", err)
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return err
	}
	boundary := fm.FullPages * storage.PageSize
	if info.Size() < boundary {
		return fmt.Errorf("stream: fact heap %s has %d bytes but the snapshot covers %d — cannot restore",
			path, info.Size(), boundary)
	}
	if err := f.Truncate(boundary); err != nil {
		return fmt.Errorf("stream: truncating fact heap: %w", err)
	}
	if fm.TailPage != "" {
		page, err := base64.StdEncoding.DecodeString(fm.TailPage)
		if err != nil {
			return fmt.Errorf("stream: decoding snapshot tail page: %w", err)
		}
		if len(page) != storage.PageSize {
			return fmt.Errorf("stream: snapshot tail page has %d bytes, want %d", len(page), storage.PageSize)
		}
		if _, err := f.WriteAt(page, boundary); err != nil {
			return fmt.Errorf("stream: restoring fact tail page: %w", err)
		}
	}
	return f.Sync()
}

// --- recovery --------------------------------------------------------------

// Recover rebuilds the stream's maintained state after a boot: restore
// the checkpointed model statistics, counters, and monitor sketches
// from the committed snapshot (if any), then replay every WAL record
// past the snapshot LSN through the live ingest/refresh paths. On a
// clean boot the tail is empty and this only reloads the checkpointed
// state. It must run before models are attached or batches ingested.
func (s *Stream) Recover(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return nil
	}
	snapPath, snapLSN, ok, err := wal.CurrentSnapshot(s.wal.Dir())
	if err != nil {
		return err
	}
	if ok {
		raw, err := os.ReadFile(filepath.Join(snapPath, streamStateFile))
		switch {
		case err == nil:
			if err := s.restoreStateLocked(ctx, raw); err != nil {
				return err
			}
		case !os.IsNotExist(err):
			return fmt.Errorf("stream: reading checkpoint state: %w", err)
		}
		// A snapshot without stream-state.json holds database files only:
		// nothing to restore beyond them.
	}
	return s.replayLocked(ctx, snapLSN)
}

// replayLocked re-applies WAL records (snapLSN, last] through the same
// ingest/refresh paths as live traffic, with re-logging and checkpoint
// triggers suppressed. Auto-refreshes re-fire deterministically from
// the replayed batches, so only batches and explicit refreshes are in
// the log.
func (s *Stream) replayLocked(ctx context.Context, snapLSN int64) error {
	r, err := s.wal.Tail(snapLSN + 1)
	if err != nil {
		return err
	}
	s.replaying = true
	defer func() { s.replaying = false }()
	for {
		lsn, payload, err := r.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return fmt.Errorf("stream: WAL record %d: %w", lsn, err)
		}
		switch rec.op {
		case walOpBatch:
			if _, err := s.ingestLocked(ctx, rec.batch); err != nil {
				return fmt.Errorf("stream: replaying WAL record %d: %w", lsn, err)
			}
		case walOpRefresh:
			if _, err := s.refreshLocked(ctx, false); err != nil {
				return fmt.Errorf("stream: replaying WAL record %d (refresh): %w", lsn, err)
			}
		case walOpAttach:
			if err := s.replayAttachLocked(rec); err != nil {
				return fmt.Errorf("stream: replaying WAL record %d (attach %q): %w", lsn, rec.name, err)
			}
		}
	}
}

// replayAttachLocked re-attaches a model from the parameters its attach
// record carried: the rebuilt base statistics see exactly the rows that
// were live when the original attach ran, because the record sits at
// the same log position.
func (s *Stream) replayAttachLocked(rec walRecord) error {
	switch rec.kind {
	case walAttachGMM:
		m, err := gmm.LoadModel(bytes.NewReader(rec.params))
		if err != nil {
			return err
		}
		return s.attachGMMLocked(rec.name, m)
	case walAttachNN:
		net, err := nn.LoadNetwork(bytes.NewReader(rec.params))
		if err != nil {
			return err
		}
		return s.attachNNLocked(rec.name, net)
	default:
		return fmt.Errorf("stream: unknown attach kind %d", rec.kind)
	}
}
