package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func testOpts() Options {
	return Options{NoSync: true}
}

func mustOpen(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func payload(i int) []byte {
	return []byte(fmt.Sprintf("record-%04d-%s", i, strings.Repeat("x", i%7)))
}

func appendN(t *testing.T, l *Log, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		lsn, err := l.Append(payload(i))
		if err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
		if lsn != int64(i+1) {
			t.Fatalf("Append(%d) assigned LSN %d, want %d", i, lsn, i+1)
		}
	}
}

func readAll(t *testing.T, l *Log, from int64) [][]byte {
	t.Helper()
	r, err := l.Tail(from)
	if err != nil {
		t.Fatalf("Tail(%d): %v", from, err)
	}
	var out [][]byte
	want := from
	for {
		lsn, p, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if lsn != want {
			t.Fatalf("Next returned LSN %d, want %d", lsn, want)
		}
		want++
		out = append(out, append([]byte(nil), p...))
	}
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	appendN(t, l, 0, 20)
	if got := l.LastLSN(); got != 20 {
		t.Fatalf("LastLSN = %d, want 20", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, testOpts())
	if got := l2.LastLSN(); got != 20 {
		t.Fatalf("LastLSN after reopen = %d, want 20", got)
	}
	recs := readAll(t, l2, 1)
	if len(recs) != 20 {
		t.Fatalf("replayed %d records, want 20", len(recs))
	}
	for i, p := range recs {
		if !bytes.Equal(p, payload(i)) {
			t.Fatalf("record %d = %q, want %q", i, p, payload(i))
		}
	}
	appendN(t, l2, 20, 5)
	if got := l2.LastLSN(); got != 25 {
		t.Fatalf("LastLSN after reopen+append = %d, want 25", got)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 64 // force rotation every few records
	l := mustOpen(t, dir, opts)
	appendN(t, l, 0, 40)
	if s := l.Stats(); s.Segments < 3 {
		t.Fatalf("expected multiple segments at a 64-byte threshold, got %d", s.Segments)
	}
	if recs := readAll(t, l, 1); len(recs) != 40 {
		t.Fatalf("tail across segments returned %d records, want 40", len(recs))
	}
	l.Close()

	l2 := mustOpen(t, dir, opts)
	if got := l2.LastLSN(); got != 40 {
		t.Fatalf("LastLSN after multi-segment reopen = %d, want 40", got)
	}
	if recs := readAll(t, l2, 17); len(recs) != 24 {
		t.Fatalf("Tail(17) returned %d records, want 24", len(recs))
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 8, 9} { // within header, at header end, mid-payload
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l := mustOpen(t, dir, testOpts())
			appendN(t, l, 0, 5)
			seg := l.Stats().ActiveSegment
			full := l.Stats().Bytes
			l.Close()

			// Tear the final record: keep 4 whole records plus `cut`
			// bytes of the fifth.
			path := filepath.Join(dir, seg)
			lastFrame := int64(frameHeaderBytes + len(payload(4)))
			if err := os.Truncate(path, full-lastFrame+int64(cut)); err != nil {
				t.Fatal(err)
			}

			l2 := mustOpen(t, dir, testOpts())
			if got := l2.LastLSN(); got != 4 {
				t.Fatalf("LastLSN after torn-tail repair = %d, want 4", got)
			}
			// The log must be appendable again and the new record
			// must occupy the reclaimed space cleanly.
			appendN(t, l2, 4, 1)
			recs := readAll(t, l2, 1)
			if len(recs) != 5 || !bytes.Equal(recs[4], payload(4)) {
				t.Fatalf("post-repair append not readable: %d records", len(recs))
			}
		})
	}
}

func TestBitFlipInFinalRecordDiscardsIt(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	appendN(t, l, 0, 3)
	seg := l.Stats().ActiveSegment
	total := l.Stats().Bytes
	l.Close()

	path := filepath.Join(dir, seg)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lastFrame := frameHeaderBytes + len(payload(2))
	raw[int(total)-lastFrame+frameHeaderBytes+2] ^= 0x10 // flip one payload bit
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := mustOpen(t, dir, testOpts())
	if got := l2.LastLSN(); got != 2 {
		t.Fatalf("LastLSN after final-record bit flip = %d, want 2 (record discarded)", got)
	}
}

func TestMidLogCorruptionNamesSegmentAndOffset(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	appendN(t, l, 0, 6)
	seg := l.Stats().ActiveSegment
	l.Close()

	// Flip a bit inside the SECOND record: records 3..6 remain valid
	// behind it, so this is unrecoverable corruption, not a torn tail.
	path := filepath.Join(dir, seg)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	firstFrame := frameHeaderBytes + len(payload(0))
	badOff := firstFrame // offset of record 2's frame
	raw[badOff+frameHeaderBytes] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, err = Open(dir, testOpts())
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open on mid-log corruption = %v, want *CorruptError", err)
	}
	if ce.Segment != path || ce.Offset != int64(badOff) {
		t.Fatalf("CorruptError names %s@%d, want %s@%d", ce.Segment, ce.Offset, path, badOff)
	}
	if !strings.Contains(ce.Error(), seg) || !strings.Contains(ce.Error(), fmt.Sprint(badOff)) {
		t.Fatalf("error text %q does not name segment and offset", ce.Error())
	}
}

func TestEmptySegmentOnReopen(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	l.Close() // never appended: one empty segment on disk

	l2 := mustOpen(t, dir, testOpts())
	if got := l2.LastLSN(); got != 0 {
		t.Fatalf("LastLSN of empty log = %d, want 0", got)
	}
	if recs := readAll(t, l2, 1); len(recs) != 0 {
		t.Fatalf("empty log tailed %d records", len(recs))
	}
	appendN(t, l2, 0, 2)
}

func TestSnapshotCommitPrunesAndReopens(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 64
	l := mustOpen(t, dir, opts)
	appendN(t, l, 0, 30)

	s, err := l.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir, "state"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(30); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if got := l.SnapshotLSN(); got != 30 {
		t.Fatalf("SnapshotLSN = %d, want 30", got)
	}
	if st := l.Stats(); st.Segments != 1 {
		t.Fatalf("snapshot at the log end should leave 1 fresh segment, got %d", st.Segments)
	}
	if _, err := l.Tail(1); err == nil {
		t.Fatal("Tail(1) under a snapshot at LSN 30 should report pruned history")
	}

	appendN(t, l, 30, 4)
	if recs := readAll(t, l, 31); len(recs) != 4 {
		t.Fatalf("post-snapshot tail = %d records, want 4", len(recs))
	}
	l.Close()

	// Reopen: snapshot LSN comes from CURRENT, tail records survive.
	l2 := mustOpen(t, dir, opts)
	if got := l2.SnapshotLSN(); got != 30 {
		t.Fatalf("SnapshotLSN after reopen = %d, want 30", got)
	}
	if got := l2.LastLSN(); got != 34 {
		t.Fatalf("LastLSN after reopen = %d, want 34", got)
	}
	path, lsn, ok, err := CurrentSnapshot(dir)
	if err != nil || !ok || lsn != 30 {
		t.Fatalf("CurrentSnapshot = %q,%d,%v,%v", path, lsn, ok, err)
	}
	blob, err := os.ReadFile(filepath.Join(path, "state"))
	if err != nil || string(blob) != "hello" {
		t.Fatalf("snapshot payload = %q,%v", blob, err)
	}
}

func TestSnapshotMidLogKeepsUncoveredSegments(t *testing.T) {
	dir := t.TempDir()
	opts := testOpts()
	opts.SegmentBytes = 64
	l := mustOpen(t, dir, opts)
	appendN(t, l, 0, 30)

	s, err := l.BeginSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(10); err != nil {
		t.Fatal(err)
	}
	// Records 11..30 must remain tailable.
	if recs := readAll(t, l, 11); len(recs) != 20 {
		t.Fatalf("tail after mid-log snapshot = %d records, want 20", len(recs))
	}
	l.Close()
	l2 := mustOpen(t, dir, opts)
	if recs := readAll(t, l2, 11); len(recs) != 20 {
		t.Fatalf("tail after reopen = %d records, want 20", len(recs))
	}
}

func TestCleanMarker(t *testing.T) {
	dir := t.TempDir()
	if clean, err := IsClean(dir); err != nil || clean {
		t.Fatalf("IsClean on fresh dir = %v,%v", clean, err)
	}
	if err := MarkClean(dir); err != nil {
		t.Fatal(err)
	}
	if clean, err := IsClean(dir); err != nil || !clean {
		t.Fatalf("IsClean after MarkClean = %v,%v", clean, err)
	}
	if err := ClearClean(dir); err != nil {
		t.Fatal(err)
	}
	if clean, err := IsClean(dir); err != nil || clean {
		t.Fatalf("IsClean after ClearClean = %v,%v", clean, err)
	}
	if err := ClearClean(dir); err != nil {
		t.Fatalf("ClearClean must be idempotent: %v", err)
	}
}

func TestGroupCommitSharesFsyncs(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{}) // real fsync, FsyncEvery=1
	const writers, perWriter = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.LastLSN != writers*perWriter {
		t.Fatalf("LastLSN = %d, want %d", st.LastLSN, writers*perWriter)
	}
	if st.Fsyncs == 0 || st.Fsyncs > st.Appends {
		t.Fatalf("fsyncs = %d for %d appends; group commit should need at most one per append", st.Fsyncs, st.Appends)
	}
	// Every record must be present and distinct after the concurrency.
	seen := make(map[string]bool)
	r, err := l.Tail(1)
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, p, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seen[string(p)] {
			t.Fatalf("duplicate record %q", p)
		}
		seen[string(p)] = true
	}
	if len(seen) != writers*perWriter {
		t.Fatalf("tailed %d distinct records, want %d", len(seen), writers*perWriter)
	}
}

func TestRelaxedFsyncEveryStillSyncsOnClose(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, Options{FsyncEvery: 64})
	appendN(t, l, 0, 10)
	// Below the window every append returned before its record was
	// durable: the bounded loss window the relaxed setting trades for.
	if got := l.Stats().Fsyncs; got != 0 {
		t.Fatalf("Fsyncs before Close = %d, want 0", got)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := mustOpen(t, dir, testOpts())
	if got := l2.LastLSN(); got != 10 {
		t.Fatalf("LastLSN = %d, want 10", got)
	}
}

func TestNilLogReadsAreSafe(t *testing.T) {
	var l *Log
	if l.Enabled() {
		t.Fatal("nil log reports enabled")
	}
	if l.LastLSN() != 0 || l.SnapshotLSN() != 0 {
		t.Fatal("nil log reports nonzero LSNs")
	}
	if s := l.Stats(); s != (Stats{}) {
		t.Fatalf("nil log stats = %+v", s)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("nil log close: %v", err)
	}
}

func TestTailBeyondEndRejected(t *testing.T) {
	dir := t.TempDir()
	l := mustOpen(t, dir, testOpts())
	appendN(t, l, 0, 3)
	if _, err := l.Tail(5); err == nil {
		t.Fatal("Tail(5) on a 3-record log should fail")
	}
	if r, err := l.Tail(4); err != nil {
		t.Fatalf("Tail(end+1) should yield an empty reader: %v", err)
	} else if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("empty tail Next = %v, want EOF", err)
	}
}

// FuzzScanSegment feeds arbitrary bytes to the segment scanner as the
// final and as a sealed segment. Every outcome must be one of three: the
// whole segment is valid frames; a valid prefix followed by a torn tail
// with no parseable frame behind it (final segment only); or a
// *CorruptError at an offset inside the segment. Never a panic.
func FuzzScanSegment(f *testing.F) {
	l, err := Open(f.TempDir(), testOpts())
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := l.Append(payload(i)); err != nil {
			f.Fatal(err)
		}
	}
	seg, err := os.ReadFile(l.segs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	l.Close()
	flipped := append([]byte{}, seg...)
	flipped[frameHeaderBytes+2] ^= 0x40
	f.Add(seg)
	f.Add(seg[:len(seg)-3])
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), segmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, last := range []bool{true, false} {
			count, valid, tearOff, torn, err := scanSegment(path, last)
			if err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) || ce.Offset < 0 || ce.Offset > int64(len(data)) {
					t.Fatalf("last=%v: error %v is not a CorruptError inside the segment", last, err)
				}
				continue
			}
			end := valid
			if torn {
				if !last {
					t.Fatal("a sealed segment reported a torn tail")
				}
				if tearOff != valid || resyncFinds(data, int(tearOff)+1) {
					t.Fatalf("torn at %d (valid %d) with a parseable frame behind it", tearOff, valid)
				}
			} else if valid != int64(len(data)) {
				t.Fatalf("last=%v: clean scan covers %d of %d bytes", last, valid, len(data))
			}
			frames, off := 0, 0
			for int64(off) < end {
				_, n, ok := parseFrame(data, off)
				if !ok {
					t.Fatalf("last=%v: valid prefix has no frame at offset %d", last, off)
				}
				off += n
				frames++
			}
			if int64(off) != end || frames != count {
				t.Fatalf("last=%v: %d frames over %d bytes, scanner said %d over %d", last, frames, off, count, end)
			}
		}
	})
}
