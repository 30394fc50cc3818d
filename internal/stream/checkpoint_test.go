package stream

// In-package tests for the checkpoint/recovery machinery: the
// snapshot round-trip (stateLocked/stageLocked → RestoreSnapshotFiles/
// restoreStateLocked), WAL replay of batch/refresh/attach records, the
// SnapshotEvery cadence, and the
// record codec's error branches. The facade-level harness proves the
// end-to-end guarantee; these pin the pieces.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"factorml/internal/data"
	"factorml/internal/gmm"
	"factorml/internal/join"
	"factorml/internal/monitor"
	"factorml/internal/nn"
	"factorml/internal/serve"
	"factorml/internal/storage"
	"factorml/internal/wal"
)

func ckptCopyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// ckptStar builds a star schema in a caller-visible directory (the
// crash copies need the path, which genStar hides).
func ckptStar(t *testing.T, dbDir string, seed int64) (*storage.Database, *join.Spec) {
	t.Helper()
	return ckptStarSized(t, dbDir, seed, 300, 12)
}

// ckptStarSized is ckptStar with nS fact rows over nR dimension tuples.
func ckptStarSized(t *testing.T, dbDir string, seed int64, nS, nR int) (*storage.Database, *join.Spec) {
	t.Helper()
	return ckptSchema(t, dbDir, data.SynthConfig{NS: nS, NR: []int{nR}, DS: 3, DR: []int{2}, Seed: seed, WithTarget: true})
}

// ckptSchema generates the star schema "st" of cfg in dbDir.
func ckptSchema(t *testing.T, dbDir string, cfg data.SynthConfig) (*storage.Database, *join.Spec) {
	t.Helper()
	db, err := storage.Open(dbDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	spec, err := data.Generate(db, "st", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db, spec
}

func ckptWAL(t *testing.T, walDir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(walDir, wal.Options{NoSync: true, SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// ckptCrashRecover "crashes" a durable stream over a ckptSchema star by
// copying its directories while it is still open, lets rewrite (when not
// nil) edit the copy's committed snapshot, and boots a stream with opts on
// the copy the way a crash boot does: restore the snapshot files, open the
// database, Recover.
func ckptCrashRecover(t *testing.T, dbDir, walDir string, opts Options, rewrite func(snapPath string)) *Stream {
	t.Helper()
	dbDir2, walDir2 := t.TempDir(), t.TempDir()
	ckptCopyTree(t, dbDir, dbDir2)
	ckptCopyTree(t, walDir, walDir2)
	if rewrite != nil {
		snapPath, _, ok, err := wal.CurrentSnapshot(walDir2)
		if err != nil || !ok {
			t.Fatalf("crash copy has no committed snapshot (ok=%v, err=%v)", ok, err)
		}
		rewrite(snapPath)
	}
	if err := RestoreSnapshotFiles(dbDir2, walDir2); err != nil {
		t.Fatal(err)
	}
	db2, err := storage.Open(dbDir2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db2.Close() })
	fact, err := db2.Table("st_S")
	if err != nil {
		t.Fatal(err)
	}
	spec2 := &join.Spec{S: fact}
	for _, name := range db2.TableNames() { // st_R1, st_R2, … in order
		if strings.HasPrefix(name, "st_R") {
			dim, err := db2.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			spec2.Rs = append(spec2.Rs, dim)
		}
	}
	opts.WAL = ckptWAL(t, walDir2)
	s2, err := New(db2, spec2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s2
}

// ckptModelBytes refreshes the stream and serializes both attached
// models — byte equality is bit equality of every parameter.
func ckptModelBytes(t *testing.T, s *Stream) []byte {
	t.Helper()
	if _, err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	gm, err := s.GMM("g")
	if err != nil {
		t.Fatal(err)
	}
	if err := gm.Save(&buf); err != nil {
		t.Fatal(err)
	}
	net, err := s.NN("n")
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRecoverRoundTrip drives the full cycle in-package: a
// durable stream with both model kinds attached checkpoints mid-run,
// ingests and refreshes past the checkpoint, and is then "crashed" by
// copying its directories. Recovery restores the snapshot, replays the
// WAL tail (batch, explicit-refresh, and attach records), and the
// recovered stream's refreshed models are bit-identical to the
// original's.
func TestCheckpointRecoverRoundTrip(t *testing.T) {
	dbDir, walDir := t.TempDir(), t.TempDir()
	db, spec := ckptStar(t, dbDir, 5)
	model := trainBase(t, db, spec, 3)
	nres, err := nn.TrainF(db, spec, nn.Config{Hidden: []int{4}, Epochs: 1, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := ckptWAL(t, walDir)
	s, err := New(db, spec, Options{Policy: Policy{NumWorkers: 1}, WAL: l})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachGMM("g", model); err != nil {
		t.Fatal(err)
	}
	if err := s.AttachNN("n", nres.Net); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(deltaBatch(t, spec, s.idxs, 9, 31)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Refresh(); err != nil { // logged as an explicit-refresh record
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snapLSN := l.SnapshotLSN()
	if snapLSN == 0 {
		t.Fatal("Checkpoint committed no snapshot")
	}
	// Tail past the checkpoint: a fact batch and a dimension update that
	// replay must re-apply on top of the restored snapshot.
	if _, err := s.Ingest(deltaBatch(t, spec, s.idxs, 7, 32)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(Batch{Dims: []DimUpdate{{
		Table: spec.Rs[0].Schema().Name, RID: 3, Features: []float64{4.5, -1.5},
	}}}); err != nil {
		t.Fatal(err)
	}
	if l.LastLSN() <= snapLSN {
		t.Fatalf("no WAL tail past the snapshot (last %d, snapshot %d)", l.LastLSN(), snapLSN)
	}
	wantPending := s.Pending()

	// Crash: copy both directories while the original is still open. The
	// second copy has its snapshot's JSON files rewritten the way releases
	// before the compact writer laid them out (json.MarshalIndent), which
	// must keep restoring.
	indent := func(snapPath string) {
		for _, name := range []string{manifestFile, streamStateFile} {
			raw, err := os.ReadFile(filepath.Join(snapPath, name))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := json.Indent(&buf, bytes.TrimSpace(raw), "", "  "); err != nil {
				t.Fatal(err)
			}
			if buf.Len() <= len(raw) {
				t.Fatalf("%s: indented form is not longer than what Checkpoint wrote — is it still compact?", name)
			}
			if err := os.WriteFile(filepath.Join(snapPath, name), buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	recovered := func(indented bool) []byte {
		var rewrite func(string)
		if indented {
			rewrite = indent
		}
		s2 := ckptCrashRecover(t, dbDir, walDir, Options{Policy: Policy{NumWorkers: 1}}, rewrite)
		if got := s2.Pending(); got != wantPending {
			t.Fatalf("recovered pending = %d, want %d", got, wantPending)
		}
		if got := len(s2.Attached()); got != 2 {
			t.Fatalf("recovered attached = %v, want both models", s2.Attached())
		}
		return ckptModelBytes(t, s2)
	}
	compact, indented := recovered(false), recovered(true)
	want := ckptModelBytes(t, s)
	if !bytes.Equal(compact, want) {
		t.Fatal("recovered models diverged from the original after refresh")
	}
	if !bytes.Equal(indented, want) {
		t.Fatal("models recovered from an indented (pre-compact-writer) checkpoint diverged from the original")
	}
}

// TestRecoverKeepsNNRefreshPlan is the crash the kill-at-any-offset
// harness's schema never grows into: the network is attached while the fact
// table is smaller than the dimension (the planner picks streaming), the
// table outgrows the dimension before the checkpoint (it would now pick
// factorized), and the run that did not crash keeps refreshing by its
// attach-time plan. The recovered stream must too — planned afresh at
// restore it trains by the other strategy, in another summation order.
func TestRecoverKeepsNNRefreshPlan(t *testing.T) {
	dbDir, walDir := t.TempDir(), t.TempDir()
	db, spec := ckptStarSized(t, dbDir, 9, 30, 100)
	nres, err := nn.TrainF(db, spec, nn.Config{Hidden: []int{4}, Epochs: 1, NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db, spec, Options{Policy: Policy{NumWorkers: 1}, WAL: ckptWAL(t, walDir)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachNN("n", nres.Net); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(deltaBatch(t, spec, s.idxs, 400, 61)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ingest(deltaBatch(t, spec, s.idxs, 10, 62)); err != nil {
		t.Fatal(err)
	}
	attached := s.PlannerDecisions()[0].Strategy
	if now := s.planNN(context.Background(), nres.Net).CheapestNonMaterializing().String(); now == attached {
		t.Fatalf("fixture does not flip the planner: %q at attach and after growth", attached)
	}

	s2 := ckptCrashRecover(t, dbDir, walDir, Options{Policy: Policy{NumWorkers: 1}}, nil)
	if got := s2.PlannerDecisions()[0].Strategy; got != attached {
		t.Fatalf("recovered stream refreshes by %q, the run it recovers by %q", got, attached)
	}
	var want, got bytes.Buffer
	for _, x := range []struct {
		s   *Stream
		buf *bytes.Buffer
	}{{s, &want}, {s2, &got}} {
		if _, err := x.s.Refresh(); err != nil {
			t.Fatal(err)
		}
		net, err := x.s.NN("n")
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Save(x.buf); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("recovered network diverged from the original after refresh")
	}
}

// streamStateV1 is a stream-state.json as format 1 wrote it — one record
// per group, every sum its own base64 string — for one mixture "g" (K=1
// over ckptStar's 3+2 columns) attached and absorbed.
const streamStateV1 = `{"format":1,"refresh_seq":3,"pending":4,
"counters":{"batches":2,"facts_ingested":9,"dim_inserts":0,"dim_updates":0,"refreshes":3,"auto_refreshes":0,
 "rebaselines":0,"checkpoints":1,"pending_rows":4,"attached_models":1,"ingest_queue_depth":0,"ingest_rejections":0},
"models":[{"name":"g","kind":"gmm","dirty":false,"last_rows":0,
 "params":{"version":1,"k":1,"d":5,"weights":[1],"means":[[0,0,0,0,0]],
  "covs":[[1,0,0,0,0, 0,1,0,0,0, 0,0,1,0,0, 0,0,0,1,0, 0,0,0,0,1]]},
 "stats":{"k":1,
  "merged":{"rows":256,"ll":"AAAAAAAAWcA=","nk":"AAAAAAAAcEA=","s1s":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
   "b00":["AAAAAAAAcEAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAABwQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAHBA"],
   "grp":[[{"g":0,"w":"AAAAAAAAcEA=","gvec":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"}]],"pairs":[]},
  "tail":{"rows":44,"ll":"AAAAAAAAMcA=","nk":"AAAAAAAARkA=","s1s":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA",
   "b00":["AAAAAAAARkAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAABGQAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAEZA"],
   "grp":[[{"g":0,"w":"AAAAAAAARkA=","gvec":"AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"}]],"pairs":[]}}}]}`

// TestRestoreFormat1DropsStatistics boots from snapshots whose stream
// state predates the current format — format 1 over ckptStar, format 2 (a
// γ-sum slab per direct dimension pair), format 3 (raw moments, keyed
// group slots, cross sums between the two dimensions) and format 4 (sums
// about an origin over the factorized partition, group sums by tuple
// ordinal) over a star of two dimensions: the mixture comes back attached,
// its statistics are not migrated, one log event says so, and its first
// refresh rebuilds them from the fact table — ending bit-identical to
// statistics that never went through a checkpoint.
func TestRestoreFormat1DropsStatistics(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("testdata", "stream-state-v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	v3, err := os.ReadFile(filepath.Join("testdata", "stream-state-v3.json"))
	if err != nil {
		t.Fatal(err)
	}
	v4, err := os.ReadFile(filepath.Join("testdata", "stream-state-v4.json"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		state []byte
		cfg   data.SynthConfig
	}{
		{"format1", []byte(streamStateV1), data.SynthConfig{NS: 300, NR: []int{12}, DS: 3, DR: []int{2}, Seed: 11, WithTarget: true}},
		// Captured from a format-2 build: one K=1 mixture attached, four
		// rows ingested, checkpointed.
		{"format2", v2, data.SynthConfig{NS: 40, NR: []int{6, 4}, DS: 3, DR: []int{2, 1}, Seed: 11, WithTarget: true}},
		// Captured from a format-3 build the same way.
		{"format3", v3, data.SynthConfig{NS: 40, NR: []int{6, 4}, DS: 3, DR: []int{2, 1}, Seed: 11, WithTarget: true}},
		// Captured from a format-4 build: the mixture attached over 36 rows,
		// four more ingested, checkpointed.
		{"format4", v4, data.SynthConfig{NS: 40, NR: []int{6, 4}, DS: 3, DR: []int{2, 1}, Seed: 11, WithTarget: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var old walStreamState
			if err := json.Unmarshal(tc.state, &old); err != nil {
				t.Fatal(err)
			}
			base, err := gmm.LoadModel(bytes.NewReader(old.Models[0].Params))
			if err != nil {
				t.Fatal(err)
			}
			dbDir, walDir := t.TempDir(), t.TempDir()
			db, spec := ckptSchema(t, dbDir, tc.cfg)
			s, err := New(db, spec, Options{WAL: ckptWAL(t, walDir)})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			var logged bytes.Buffer
			s2 := ckptCrashRecover(t, dbDir, walDir, Options{Policy: Policy{NumWorkers: 2}, Logger: slog.New(slog.NewJSONHandler(&logged, nil))},
				func(snapPath string) {
					if err := os.WriteFile(filepath.Join(snapPath, streamStateFile), tc.state, 0o644); err != nil {
						t.Fatal(err)
					}
				})
			if got := s2.Attached(); len(got) != 1 || got[0] != "g" {
				t.Fatalf("recovered attached = %v, want [g]", got)
			}
			if got := s2.Pending(); got != old.Pending {
				t.Fatalf("recovered pending = %d, want the checkpoint's %d", got, old.Pending)
			}
			if fp := s2.PlannerDecisions()[0].Statistics; fp == nil || *fp != (Footprint{Bytes: fp.Bytes}) {
				t.Fatalf("format-%d statistics were not dropped: %+v", old.Format, fp)
			}
			if n := strings.Count(logged.String(), "\n"); n != 1 || !strings.Contains(logged.String(), fmt.Sprintf(`"format":%d,`, old.Format)) {
				t.Fatalf("want one log event naming format %d, got %d:\n%s", old.Format, n, logged.String())
			}

			res, err := s2.Refresh()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Models) != 1 || !res.Models[0].Rebaselined || res.Models[0].RowsAbsorbed != spec.S.NumTuples() {
				t.Fatalf("first refresh after a format-%d restore: %+v, want a rebaseline over %d rows", old.Format, res, spec.S.NumTuples())
			}
			got, err := s2.GMM("g")
			if err != nil {
				t.Fatal(err)
			}
			fresh := NewGMMStats(s2.rv, tc.cfg.DS, base)
			if err := fresh.Absorb(base, s2.spec.S, 1); err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Step(base)
			if err != nil {
				t.Fatal(err)
			}
			if d := got.MaxParamDiff(want); d != 0 {
				t.Fatalf("rebaselined model differs from a from-scratch step by %g, want bit-identical", d)
			}
		})
	}
}

// TestRecoverWithoutSnapshotReplaysFromGenesis recovers a WAL whose
// snapshot was never committed: replay starts from LSN 1 over the live
// database files.
func TestRecoverWithoutSnapshotReplaysFromGenesis(t *testing.T) {
	dbDir, walDir := t.TempDir(), t.TempDir()
	db, spec := ckptStar(t, dbDir, 6)
	l := ckptWAL(t, walDir)
	s, err := New(db, spec, Options{Policy: Policy{NumWorkers: 1}, WAL: l})
	if err != nil {
		t.Fatal(err)
	}
	base := spec.S.NumTuples()
	if _, err := s.Ingest(deltaBatch(t, spec, s.idxs, 5, 41)); err != nil {
		t.Fatal(err)
	}

	walDir2 := t.TempDir()
	ckptCopyTree(t, walDir, walDir2)
	// Fresh db content identical to pre-ingest state: regenerate.
	dbDir2 := t.TempDir()
	db2, spec2 := ckptStar(t, dbDir2, 6)
	_ = db2
	l2 := ckptWAL(t, walDir2)
	s2, err := New(db2, spec2, Options{Policy: Policy{NumWorkers: 1}, WAL: l2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := spec2.S.NumTuples(); got != base+5 {
		t.Fatalf("replayed fact rows = %d, want %d", got, base+5)
	}
	if got := s2.Pending(); got != 5 {
		t.Fatalf("replayed pending = %d, want 5", got)
	}
}

// TestSnapshotEveryCadence lets the automatic checkpoint trigger fire
// and verifies the WAL is truncated behind it.
func TestSnapshotEveryCadence(t *testing.T) {
	dbDir, walDir := t.TempDir(), t.TempDir()
	db, spec := ckptStar(t, dbDir, 8)
	l := ckptWAL(t, walDir)
	s, err := New(db, spec, Options{Policy: Policy{NumWorkers: 1}, WAL: l, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		if _, err := s.Ingest(deltaBatch(t, spec, s.idxs, 2, 50+i)); err != nil {
			t.Fatal(err)
		}
	}
	if snap := l.SnapshotLSN(); snap < 2 {
		t.Fatalf("SnapshotEvery=2 never checkpointed after 5 records (snapshot LSN %d)", snap)
	}
	if c := s.Counters(); c.Checkpoints < 2 {
		t.Fatalf("Checkpoints = %d, want >= 2", c.Checkpoints)
	}
}

// TestWALRecordCodecRoundTrip pins the batch/refresh/attach encodings
// through decodeWALRecord.
func TestWALRecordCodecRoundTrip(t *testing.T) {
	b := Batch{
		Dims: []DimUpdate{{Table: "items", RID: 7, FKs: []int64{1, 2}, Features: []float64{1.5, -2.5}}},
		Facts: []FactRow{
			{SID: 9, FKs: []int64{3}, Features: []float64{0.25}, Target: -4},
			{SID: 10, FKs: []int64{4}, Features: []float64{0.5}, Target: 8},
		},
	}
	enc, err := appendBatchRecord(nil, &b)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeWALRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if rec.op != walOpBatch || len(rec.batch.Dims) != 1 || len(rec.batch.Facts) != 2 {
		t.Fatalf("decoded %+v", rec)
	}
	if rec.batch.Dims[0].Table != "items" || rec.batch.Facts[1].Target != 8 {
		t.Fatalf("decoded %+v", rec.batch)
	}

	rec, err = decodeWALRecord(appendRefreshRecord(nil))
	if err != nil || rec.op != walOpRefresh {
		t.Fatalf("refresh decode: %+v, %v", rec, err)
	}

	enc, err = appendAttachRecord(nil, walAttachNN, "net", []byte("params"))
	if err != nil {
		t.Fatal(err)
	}
	rec, err = decodeWALRecord(enc)
	if err != nil || rec.op != walOpAttach || rec.kind != walAttachNN ||
		rec.name != "net" || string(rec.params) != "params" {
		t.Fatalf("attach decode: %+v, %v", rec, err)
	}
}

// TestWALRecordCodecErrors pins the decoder's hard-error branches:
// version skew, unknown op, truncation, trailing bytes, and a count
// whose elements cannot fit in the record.
func TestWALRecordCodecErrors(t *testing.T) {
	valid, err := appendAttachRecord(nil, walAttachGMM, "g", []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    []byte
		want string
	}{
		{"empty", nil, "truncated"},
		{"bad version", []byte{99, walOpRefresh}, "version 99"},
		{"unknown op", []byte{walRecordVersion, 42}, "unknown WAL record op 42"},
		{"truncated attach", valid[:len(valid)-1], "attach params"},
		{"trailing bytes", append(append([]byte{}, valid...), 0), "trailing bytes"},
		{"count over limit", []byte{walRecordVersion, walOpBatch, 0xff, 0xff, 0xff, 0xff}, "exceeds the 0 bytes remaining"},
	}
	for _, tc := range cases {
		_, err := decodeWALRecord(tc.p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}

	long := strings.Repeat("x", 1<<17)
	if _, err := appendAttachRecord(nil, walAttachGMM, long, nil); err == nil {
		t.Error("oversized model name accepted")
	}
	if _, err := appendAttachRecord(nil, walAttachGMM, "g", make([]byte, walBatchLimit+1)); err == nil {
		t.Error("oversized model params accepted")
	}
}

// FuzzDecodeWALRecord throws arbitrary payloads at the record decoder: it
// must reject or accept cleanly — never panic, never size a slice past
// the payload — and anything it accepts must re-encode to the identical
// bytes.
func FuzzDecodeWALRecord(f *testing.F) {
	batch, err := appendBatchRecord(nil, &Batch{
		Dims:  []DimUpdate{{Table: "items", RID: 7, FKs: []int64{1}, Features: []float64{1.5}}},
		Facts: []FactRow{{SID: 9, FKs: []int64{3}, Features: []float64{0.25}, Target: -4}},
	})
	if err != nil {
		f.Fatal(err)
	}
	attach, err := appendAttachRecord(nil, walAttachNN, "net", []byte("params"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(batch)
	f.Add(attach)
	f.Add(appendRefreshRecord(nil))
	f.Add([]byte{walRecordVersion, walOpBatch, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{walRecordVersion, walOpAttach, walAttachGMM, 0, 0, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, p []byte) {
		rec, err := decodeWALRecord(p)
		if err != nil {
			return
		}
		enc, err := reencodeWALRecord(&rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		if !bytes.Equal(enc, p) {
			t.Fatalf("round-trip mismatch:\n in %x\nout %x", p, enc)
		}
	})
}

// FuzzGMMStatsRestore throws arbitrary checkpoint statistics at restore,
// over a schema of two direct dimensions: it must reject them, or restore
// statistics whose state re-encodes to exactly the origin and sums it read
// — never panic, and never allocate more than a small multiple of the
// input.
func FuzzGMMStatsRestore(f *testing.F) {
	db, err := storage.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	defer db.Close()
	spec, err := data.Generate(db, "fz", data.SynthConfig{NS: 300, NR: []int{6, 4}, DS: 2, DR: []int{2, 1}, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	plan := spec.Plan()
	idxs, err := plan.BuildIndexes(nil)
	if err != nil {
		f.Fatal(err)
	}
	rv, err := join.NewResolver(plan.Parent, plan.Ref, idxs)
	if err != nil {
		f.Fatal(err)
	}
	res, err := gmm.TrainF(db, spec, gmm.Config{K: 2, MaxIter: 1, Tol: 1e-300, NumWorkers: 1})
	if err != nil {
		f.Fatal(err)
	}
	model := res.Model
	st := NewGMMStats(rv, 2, model)
	if err := st.Absorb(model, spec.S, 1); err != nil {
		f.Fatal(err)
	}
	valid := st.state()
	if err := NewGMMStats(rv, 2, model).restore(valid, spec.S.NumTuples()); err != nil {
		f.Fatalf("a checkpoint's own statistics do not restore: %v", err)
	}
	f.Add(valid.K, valid.Rows, valid.Origin, valid.Done, valid.Open)
	f.Add(2, int64(0), valid.Origin, NewGMMStats(rv, 2, model).state().Done, valid.Open)
	f.Add(3, valid.Rows, valid.Origin, valid.Done, valid.Open)
	f.Add(2, int64(-1), valid.Origin, valid.Done, valid.Open)
	f.Add(2, valid.Rows, valid.Origin[8:], valid.Done, valid.Open)
	f.Add(2, valid.Rows, valid.Origin, valid.Done[8:], valid.Open)
	f.Add(2, valid.Rows, valid.Origin, valid.Done, append(valid.Open[:len(valid.Open):len(valid.Open)], 0, 0, 0, 0, 0, 0, 0, 0))
	f.Add(2, valid.Rows, valid.Origin, valid.Open, valid.Done)
	f.Add(2, spec.S.NumTuples()+1, valid.Origin, valid.Done, valid.Open)
	f.Fuzz(func(t *testing.T, k int, rows int64, origin, done, open []byte) {
		in := &gmmStatsState{K: k, Rows: rows, Origin: origin, Done: done, Open: open}
		got := NewGMMStats(rv, 2, model)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := got.restore(in, spec.S.NumTuples())
		runtime.ReadMemStats(&after)
		if grew, size := after.TotalAlloc-before.TotalAlloc, len(origin)+len(done)+len(open); grew > uint64(4*size)+64<<10 {
			t.Fatalf("restoring %d bytes of statistics allocated %d bytes", size, grew)
		}
		if err != nil {
			return
		}
		if out := got.state(); !reflect.DeepEqual(out, in) {
			t.Fatalf("restored statistics re-encode differently:\n in %+v\nout %+v", in, out)
		}
	})
}

// FuzzStreamState throws arbitrary bytes at a checkpoint's stream state the
// way Recover reads stream-state.json, over a small star of two dimensions
// with a health monitor: the state must be rejected, or the restored
// stream's next refresh must succeed — never a panic. The one failure that
// refresh may return is the typed NonFiniteModelError, for restored
// statistics whose M-step overflows: a live stream holding those sums
// returns it too, and a checkpoint saves the sums bit for bit, ±Inf
// included.
func FuzzStreamState(f *testing.F) {
	cfg := data.SynthConfig{NS: 40, NR: []int{6, 4}, DS: 3, DR: []int{2, 1}, Seed: 11, WithTarget: true}
	db, err := storage.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	defer db.Close()
	spec, err := data.Generate(db, "st", cfg)
	if err != nil {
		f.Fatal(err)
	}
	gres, err := gmm.TrainF(db, spec, gmm.Config{K: 2, MaxIter: 1, Tol: 1e-300, NumWorkers: 1})
	if err != nil {
		f.Fatal(err)
	}
	nres, err := nn.TrainF(db, spec, nn.Config{Hidden: []int{3}, Epochs: 1, NumWorkers: 1})
	if err != nil {
		f.Fatal(err)
	}
	open := func(reg *serve.Registry) *Stream {
		s, err := New(db, spec, Options{Registry: reg, Policy: Policy{NumWorkers: 1}, Monitor: monitor.New(monitor.Config{})})
		if err != nil {
			f.Fatal(err)
		}
		return s
	}
	// The seed state's mixture carries a drift baseline, so the monitor's
	// part of the state has sketches to mutate.
	base, err := monitor.CaptureBaseline(spec, func(x []float64, _ float64) float64 { return gres.Model.LogProb(x) }, "log_likelihood")
	if err != nil {
		f.Fatal(err)
	}
	reg, err := serve.NewRegistry(db)
	if err != nil {
		f.Fatal(err)
	}
	if err := reg.SaveGMMLineage("g", gres.Model, &monitor.Lineage{TrainingRows: base.Rows, Baseline: base}); err != nil {
		f.Fatal(err)
	}
	s := open(reg)
	if err := s.AttachGMM("g", gres.Model); err != nil {
		f.Fatal(err)
	}
	if err := s.AttachNN("n", nres.Net); err != nil {
		f.Fatal(err)
	}
	var b Batch
	for i := 0; i < 5; i++ {
		b.Facts = append(b.Facts, FactRow{SID: int64(100 + i), FKs: []int64{int64(i % 6), int64(i % 4)}, Features: []float64{float64(i), -1.5, 0.5}, Target: 1})
	}
	if _, err := s.Ingest(b); err != nil {
		f.Fatal(err)
	}
	if _, err := s.Refresh(); err != nil {
		f.Fatal(err)
	}
	s.mu.Lock()
	st, err := s.stateLocked()
	s.mu.Unlock()
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	st.Models[0].Stats.Rows += 1000 // statistics over rows the fact table does not have
	beyond, err := json.Marshal(st)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(beyond)
	var nnParams, narrow bytes.Buffer
	if err := nres.Net.Save(&nnParams); err != nil {
		f.Fatal(err)
	}
	net, err := nn.NewNetwork([]int{2, 3, 1}, nres.Net.Act, 1)
	if err != nil {
		f.Fatal(err)
	}
	if err := net.Save(&narrow); err != nil {
		f.Fatal(err)
	}
	for _, name := range []string{"stream-state-v2.json", "stream-state-v3.json", "stream-state-v4.json"} {
		old, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(old)
	}
	// Models of another width than the schema's joined row.
	f.Add([]byte(`{"format":4,"models":[{"name":"g","kind":"gmm","params":{"version":1,"k":1,"d":2,"weights":[1],"means":[[0,0]],"covs":[[1,0,0,1]]}}]}`))
	f.Add([]byte(`{"format":5,"models":[{"name":"n","kind":"nn","params":` + narrow.String() + `}]}`))
	f.Add([]byte(`{"format":5,"models":[{"name":"n","kind":"nn","params":{}}]}`))
	f.Add([]byte(`{"format":0}`))
	f.Add([]byte(`{"format":5,"monitor":{"models":[{"name":"g","kind":"gmm","lineage":{"baseline":{"columns":[]}}}]}}`))
	f.Add([]byte(`{"format":5,"models":[{"name":"n","kind":"nn","params":` + nnParams.String() + `}],"monitor":{"models":[{"name":"n","kind":"nn","lineage":{"baseline":{"columns":[]}}}]}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s := open(nil)
		s.mu.Lock()
		err := s.restoreStateLocked(context.Background(), raw)
		s.mu.Unlock()
		if err != nil {
			return
		}
		if _, err := s.Refresh(); err != nil && !isNonFiniteModel(err) {
			t.Fatalf("a restored state fails its next refresh: %v", err)
		}
	})
}
