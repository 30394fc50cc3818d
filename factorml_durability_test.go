package factorml

// Unit tests for the durability boot/close protocol around the edges
// the kill-at-any-offset sweep does not reach: legacy (pre-WAL)
// directories, checkpoint cadence with stale snapshots behind a live
// tail, empty rotated segments, the ack-implies-durable contract, and
// the close protocol over unrecovered crash state.

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"factorml/internal/wal"
)

// crashIngest applies one tiny valid batch and returns its fact count.
func crashIngest(t *testing.T, st *Stream, sid int64) {
	t.Helper()
	_, err := st.Ingest(StreamBatch{Facts: []FactRow{
		{SID: sid, FKs: []int64{0}, Features: []float64{0.5}, Target: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDurabilityUpgradeLegacyDir opens a database that predates the
// WAL (created without durability, closed normally) WithDurability:
// the boot must treat the missing clean marker as a fresh start, not a
// crash, and the first stream boot makes the directory crash-safe.
func TestDurabilityUpgradeLegacyDir(t *testing.T) {
	dir := t.TempDir()
	w := genCrashWorkload(1, 0)
	db, err := Open(dir, Options{NumWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	st := buildCrashBase(t, db, w, 1)
	_ = st
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Legacy layout: no wal/ directory at all.
	if _, err := os.Stat(filepath.Join(dir, "wal")); !os.IsNotExist(err) {
		t.Fatalf("legacy dir unexpectedly has a wal directory (err %v)", err)
	}
	db2, err := Open(dir, Options{NumWorkers: 1}, crashDurability())
	if err != nil {
		t.Fatalf("upgrading legacy dir: %v", err)
	}
	if !db2.Durable() {
		t.Fatal("Durable() = false after WithDurability")
	}
	orders, err := db2.FactTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	base := orders.NumTuples()
	st2, err := db2.NewStream(orders, crashPolicy(1))
	if err != nil {
		t.Fatal(err)
	}
	crashIngest(t, st2, 9000) // acked and logged; db2 abandoned without Close

	// Crash: reboot a copy and the acked row must survive.
	clone := t.TempDir()
	copyTree(t, dir, clone)
	db3, err := Open(clone, Options{NumWorkers: 1}, crashDurability())
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	orders3, err := db3.FactTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db3.NewStream(orders3, crashPolicy(1)); err != nil {
		t.Fatal(err)
	}
	if got := orders3.NumTuples(); got != base+1 {
		t.Fatalf("recovered fact rows = %d, want %d", got, base+1)
	}
}

// TestCheckpointCadenceTruncatesWAL drives enough records through a
// SnapshotEvery cadence to commit several automatic checkpoints, then
// crashes with a stale snapshot behind a live tail: recovery must
// restore the snapshot and replay only the tail.
func TestCheckpointCadenceTruncatesWAL(t *testing.T) {
	w := genCrashWorkload(2, 0)
	// 256-byte segments force rotation so pruning is observable.
	durable := withWAL(DurabilityConfig{SnapshotEvery: 4}, wal.Options{NoSync: true, SegmentBytes: 256})

	dir := t.TempDir()
	db, err := Open(dir, Options{NumWorkers: 1}, durable)
	if err != nil {
		t.Fatal(err)
	}
	st := buildCrashBase(t, db, w, 1)
	for i := int64(0); i < 15; i++ {
		crashIngest(t, st, 9000+i)
	}
	ws := db.WALStats()
	if ws.SnapshotLSN == 0 {
		t.Fatalf("no automatic checkpoint after 17 records: %+v", ws)
	}
	if ws.LastLSN <= ws.SnapshotLSN {
		t.Fatalf("tail should extend past the snapshot: %+v", ws)
	}
	if c := st.Counters(); c.Checkpoints < 2 {
		t.Fatalf("Checkpoints = %d, want >= 2 (boot + cadence)", c.Checkpoints)
	}
	// Covered segments must have been pruned: the live log holds only
	// records past the stale snapshot (plus the active segment).
	if ws.Segments > 4 {
		t.Fatalf("WAL kept %d segments after checkpoints: %+v", ws.Segments, ws)
	}
	want := st.Pending()

	clone := t.TempDir()
	copyTree(t, dir, clone) // db abandoned: crash with stale snapshot + tail
	db2, err := Open(clone, Options{NumWorkers: 1}, durable)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	orders, err := db2.FactTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	st2, err := db2.NewStream(orders, crashPolicy(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := st2.Pending(); got != want {
		t.Fatalf("recovered pending rows = %d, want %d", got, want)
	}
	if got := len(st2.Attached()); got != 2 {
		t.Fatalf("recovered attached models = %d, want 2", got)
	}
	if got := orders.NumTuples(); got != int64(len(w.factRows))+15 {
		t.Fatalf("recovered fact rows = %d, want %d", got, len(w.factRows)+15)
	}
}

// TestEmptySegmentRecovery reboots a crash state whose WAL ends in a
// freshly rotated, still-empty segment file.
func TestEmptySegmentRecovery(t *testing.T) {
	w := genCrashWorkload(3, 4)
	refGMM, refNN := runCrashReference(t, w, 1, true)
	victim := runCrashVictim(t, w, 1)
	frames, _, _ := readWALLayout(t, filepath.Join(victim, "wal"))
	next := int64(len(frames)) + 1
	empty := filepath.Join(victim, "wal", walSegmentName(next))
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	gmmB, nnB, k := recoverAndFinish(t, victim, w, 1)
	if int(k) != len(frames) {
		t.Fatalf("recovered to LSN %d, want %d", k, len(frames))
	}
	if !bytes.Equal(gmmB, refGMM) || !bytes.Equal(nnB, refNN) {
		t.Fatal("models diverged after empty-segment recovery")
	}
}

// walSegmentName mirrors the wal package's segment naming for test
// fixtures.
func walSegmentName(firstLSN int64) string {
	const hexDigits = "0123456789abcdef"
	name := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		name[i] = hexDigits[firstLSN&0xf]
		firstLSN >>= 4
	}
	return string(name) + ".wal"
}

// TestIngestAckImpliesDurable is the white-box regression for the
// ack-before-durable bug: by the time Ingest (and the HTTP 200 it
// backs) returns, the batch's WAL record must be appended and fsynced.
// The stream is then abandoned without any flush or close — exactly a
// crash between the ack and the next flush — and the acked row must
// survive recovery.
func TestIngestAckImpliesDurable(t *testing.T) {
	w := genCrashWorkload(4, 0)
	dir := t.TempDir()
	// Real fsync (no NoSync), strictest window: every append durable.
	db, err := Open(dir, Options{NumWorkers: 1}, WithDurability(DurabilityConfig{
		FsyncEvery: 1, SnapshotEvery: 0,
	}))
	if err != nil {
		t.Fatal(err)
	}
	st := buildCrashBase(t, db, w, 1)
	before := db.WALStats()
	crashIngest(t, st, 9000)
	after := db.WALStats()
	if after.LastLSN != before.LastLSN+1 {
		t.Fatalf("ack without a WAL record: LastLSN %d -> %d", before.LastLSN, after.LastLSN)
	}
	if after.Fsyncs <= before.Fsyncs {
		t.Fatalf("ack without an fsync: Fsyncs %d -> %d", before.Fsyncs, after.Fsyncs)
	}

	clone := t.TempDir()
	copyTree(t, dir, clone) // crash between ack and any flush
	db2, err := Open(clone, Options{NumWorkers: 1}, crashDurability())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	orders, err := db2.FactTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db2.NewStream(orders, crashPolicy(1)); err != nil {
		t.Fatal(err)
	}
	if got := orders.NumTuples(); got != int64(len(w.factRows))+1 {
		t.Fatalf("acked row lost: fact rows = %d, want %d", got, len(w.factRows)+1)
	}
}

// TestCloseWithoutRecoveryKeepsCrashState opens a crashed directory
// without building a stream and closes it again: the close must NOT
// mark the shutdown clean, so a later boot still recovers the tail.
func TestCloseWithoutRecoveryKeepsCrashState(t *testing.T) {
	w := genCrashWorkload(5, 4)
	refGMM, refNN := runCrashReference(t, w, 1, true)
	victim := runCrashVictim(t, w, 1)

	// Open/close without recovery (no stream built).
	db, err := Open(victim, Options{NumWorkers: 1}, crashDurability())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadGMM("g"); err != nil { // read-only use of the crashed dir
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	gmmB, nnB, _ := recoverAndFinish(t, victim, w, 1)
	if !bytes.Equal(gmmB, refGMM) || !bytes.Equal(nnB, refNN) {
		t.Fatal("crash state was damaged by an open/close without recovery")
	}
}

// TestCleanShutdownSkipsRecovery closes a durable streaming database
// cleanly and reboots it: the clean marker must short-circuit restore,
// and the reopened stream continues from the checkpointed state.
func TestCleanShutdownSkipsRecovery(t *testing.T) {
	w := genCrashWorkload(6, 0)
	dir := t.TempDir()
	db, err := Open(dir, Options{NumWorkers: 1}, crashDurability())
	if err != nil {
		t.Fatal(err)
	}
	st := buildCrashBase(t, db, w, 1)
	crashIngest(t, st, 9000)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{NumWorkers: 1}, crashDurability())
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	orders, err := db2.FactTable("orders")
	if err != nil {
		t.Fatal(err)
	}
	if got := orders.NumTuples(); got != int64(len(w.factRows))+1 {
		t.Fatalf("rows after clean reboot = %d, want %d", got, len(w.factRows)+1)
	}
	st2, err := db2.NewStream(orders, crashPolicy(1))
	if err != nil {
		t.Fatal(err)
	}
	// The close checkpoint carried the stream state across the reboot.
	if got := len(st2.Attached()); got != 2 {
		t.Fatalf("attached models after clean reboot = %d, want 2", got)
	}
	if got := st2.Pending(); got != 1 {
		t.Fatalf("pending rows after clean reboot = %d, want 1", got)
	}
}

// TestServerExposesWALTelemetry wires a durable streaming server and
// checks the observability surface: the "wal" section of /statsz and
// the factorml_wal_* samples in /metrics.
func TestServerExposesWALTelemetry(t *testing.T) {
	w := genCrashWorkload(7, 0)
	dir := t.TempDir()
	db, err := Open(dir, Options{NumWorkers: 1}, crashDurability())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st := buildCrashBase(t, db, w, 1)
	_ = st
	srv, err := NewServer(db, []string{"items"},
		WithStream("orders", crashPolicy(1)), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/ingest",
		strings.NewReader(`{"facts":[{"sid":9000,"fks":[0],"features":[0.5],"target":1}]}`)))
	if rec.Code != 200 {
		t.Fatalf("ingest: %d %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/statsz", nil))
	var stats struct {
		WAL WALStats `json:"wal"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.WAL.LastLSN < 1 || stats.WAL.Appends < 1 {
		t.Fatalf("statsz wal section: %+v", stats.WAL)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()
	for _, name := range []string{"factorml_wal_last_lsn", "factorml_wal_appends_total", "factorml_stream_checkpoints_total"} {
		if !strings.Contains(body, name) {
			t.Fatalf("/metrics missing %s", name)
		}
	}
}
