// Package wal implements the write-ahead log behind crash-safe
// streaming: every acked ingest batch and explicit refresh is framed,
// CRC-protected, and fsynced (group-committed across concurrent
// writers) before the caller sees success. Alongside the log the
// package manages atomic snapshot rotation (snapshot.go) so recovery
// is "restore last snapshot, replay the tail", and exposes the tail as
// an ordered change feed (Tail) — the replication hook for read
// replicas following a primary.
//
// The log is a directory of segment files named by the LSN of their
// first record (0000000000000001.wal, ...). A record is framed as
//
//	[u32 LE payload length][u32 LE CRC-32 (IEEE) of length‖payload][payload]
//
// LSNs are assigned densely from 1 in append order. On open, every
// segment is scanned: an invalid frame in any position that is
// followed by parseable data is hard corruption (CorruptError naming
// the segment and byte offset — the operator must intervene), while an
// invalid frame with nothing valid after it is a torn tail from a
// crash mid-append and is truncated away silently; such a record was
// never acked, because acks happen only after fsync.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"factorml/internal/durable"
	"factorml/internal/metrics"
)

// maxRecordBytes bounds a single record; longer length prefixes are
// treated as frame corruption rather than attempted allocations.
const maxRecordBytes = 64 << 20

const frameHeaderBytes = 8

// Options configures a Log. The zero value is usable: 4 MiB segments
// with every append group-committed durable before it returns.
type Options struct {
	// SegmentBytes is the rotation threshold: a new segment starts
	// once the active one reaches this many bytes. Default 4 MiB.
	SegmentBytes int64

	// FsyncEvery controls the durability window. At 1 (the default)
	// every Append blocks until its record is fsynced — concurrent
	// appenders share one fsync via group commit, so the cost
	// amortizes under load without weakening the guarantee. At N>1
	// the log fsyncs only every N-th record and Append may return
	// before its record is durable: a deliberate, bounded-loss
	// trade for ingest latency.
	FsyncEvery int

	// NoSync disables fsync entirely (tests and benchmarks that
	// simulate crashes by copying files rather than losing power).
	NoSync bool
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.FsyncEvery < 1 {
		o.FsyncEvery = 1
	}
	return o
}

// CorruptError reports an unrecoverable frame failure: a record whose
// CRC or framing is invalid even though valid data follows it, which a
// crash cannot produce (crashes tear only the tail).
type CorruptError struct {
	Segment string // segment file path
	Offset  int64  // byte offset of the bad frame within the segment
	Reason  string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt record in segment %s at offset %d: %s", e.Segment, e.Offset, e.Reason)
}

// Stats is a point-in-time snapshot of log health, the "wal" section of
// /statsz and /metrics.
type Stats struct {
	LastLSN       int64         `json:"last_lsn"`
	SnapshotLSN   int64         `json:"snapshot_lsn"`
	Segments      int           `json:"segments"`
	ActiveSegment string        `json:"active_segment"`
	Bytes         int64         `json:"bytes"` // live bytes across all segments
	Appends       int64         `json:"appends"`
	AppendedBytes int64         `json:"appended_bytes"`
	Fsyncs        int64         `json:"fsyncs"`
	FsyncTotal    time.Duration `json:"fsync_total_ns"`
	LastFsync     time.Duration `json:"last_fsync_ns"`
}

// Samples emits the durability watermarks as factorml_wal_* samples.
func (s Stats) Samples(emit metrics.Emit) {
	emit.Gauge("factorml_wal_last_lsn", "LSN of the most recent WAL record.", float64(s.LastLSN))
	emit.Gauge("factorml_wal_snapshot_lsn", "LSN covered by the committed snapshot.", float64(s.SnapshotLSN))
	emit.Gauge("factorml_wal_segments", "Live WAL segment files.", float64(s.Segments))
	emit.Gauge("factorml_wal_bytes", "Live bytes across WAL segments.", float64(s.Bytes))
	emit.Counter("factorml_wal_appends_total", "WAL records appended.", float64(s.Appends))
	emit.Counter("factorml_wal_fsyncs_total", "WAL fsyncs (group commits).", float64(s.Fsyncs))
	emit.Counter("factorml_wal_fsync_seconds_total", "Cumulative WAL fsync time.", s.FsyncTotal.Seconds())
	emit.Gauge("factorml_wal_last_fsync_seconds", "Duration of the most recent WAL fsync.", s.LastFsync.Seconds())
}

type segment struct {
	path     string
	firstLSN int64
	bytes    int64 // valid bytes (final size for sealed segments)
}

// Log is an append-only write-ahead log over a directory of segment
// files. All methods are safe for concurrent use; nil-receiver reads
// (LastLSN, Stats) are no-ops so disabled-durability hot
// paths stay branch-only.
type Log struct {
	dir  string
	opts Options

	mu        sync.Mutex // serializes appends, rotation, truncation
	segs      []segment
	active    *os.File
	activeOff int64 // bytes written to the active segment
	basePos   int64 // global byte position where the active segment starts
	lastLSN   int64
	snapLSN   int64
	closed    bool
	frameBuf  []byte // reused append frame

	// Group-commit state. Lock order: mu before sm; the fsync itself
	// runs with neither held so appenders can keep writing.
	sm        sync.Mutex
	syncCond  *sync.Cond
	syncFile  *os.File
	writePos  int64 // global bytes written (mirrors basePos+activeOff)
	syncedPos int64 // global bytes known durable
	syncing   bool
	syncErr   error
	sinceSync int

	statFsyncs     int64
	statFsyncNanos int64
	statLastFsync  int64
	statAppends    int64
	statBytes      int64
}

// Open opens (or creates) the log in dir, verifying every segment. A
// torn tail in the final segment is truncated away; corruption
// anywhere else returns a *CorruptError naming the segment and offset.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts}
	l.syncCond = sync.NewCond(&l.sm)
	if _, lsn, ok, err := CurrentSnapshot(dir); err != nil {
		return nil, err
	} else if ok {
		l.snapLSN = lsn
	}

	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		first := l.snapLSN + 1
		f, path, err := createSegment(dir, first, opts.NoSync)
		if err != nil {
			return nil, err
		}
		l.segs = []segment{{path: path, firstLSN: first}}
		l.active = f
		l.lastLSN = l.snapLSN
		l.syncFile = f
		return l, nil
	}

	for i := range segs {
		last := i == len(segs)-1
		count, valid, tearOff, torn, err := scanSegment(segs[i].path, last)
		if err != nil {
			return nil, err
		}
		if torn {
			if err := os.Truncate(segs[i].path, tearOff); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", segs[i].path, err)
			}
			valid = tearOff
		}
		segs[i].bytes = valid
		if !last && segs[i+1].firstLSN != segs[i].firstLSN+int64(count) {
			return nil, &CorruptError{
				Segment: segs[i].path,
				Offset:  valid,
				Reason: fmt.Sprintf("segment holds %d records from LSN %d but next segment starts at %d",
					count, segs[i].firstLSN, segs[i+1].firstLSN),
			}
		}
		if last {
			l.lastLSN = segs[i].firstLSN + int64(count) - 1
		}
	}
	l.segs = segs
	tail := &segs[len(segs)-1]
	f, err := os.OpenFile(tail.path, os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: reopening %s: %w", tail.path, err)
	}
	if _, err := f.Seek(tail.bytes, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seeking %s: %w", tail.path, err)
	}
	for i := range segs[:len(segs)-1] {
		l.basePos += segs[i].bytes
	}
	l.active = f
	l.activeOff = tail.bytes
	l.syncFile = f
	l.writePos = l.basePos + l.activeOff
	l.syncedPos = l.writePos // surviving bytes are what recovery has to work with
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// LastLSN returns the LSN of the most recent record (0 before any
// append). Safe on a nil *Log.
func (l *Log) LastLSN() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastLSN
}

// SnapshotLSN returns the LSN covered by the current committed
// snapshot (0 when none). Safe on a nil *Log.
func (l *Log) SnapshotLSN() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapLSN
}

// Stats returns a consistent snapshot of log counters. Safe on a nil
// *Log, where it returns zeros.
func (l *Log) Stats() Stats {
	if l == nil {
		return Stats{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Stats{
		LastLSN:       l.lastLSN,
		SnapshotLSN:   l.snapLSN,
		Segments:      len(l.segs),
		ActiveSegment: filepath.Base(l.segs[len(l.segs)-1].path),
		Bytes:         l.basePos + l.activeOff,
	}
	l.sm.Lock()
	s.Appends = l.statAppends
	s.AppendedBytes = l.statBytes
	s.Fsyncs = l.statFsyncs
	s.FsyncTotal = time.Duration(l.statFsyncNanos)
	s.LastFsync = time.Duration(l.statLastFsync)
	l.sm.Unlock()
	return s
}

// Append writes one record and returns its LSN. With FsyncEvery<=1 the
// record is durable when Append returns; concurrent appenders
// piggyback on a single fsync (group commit).
func (l *Log) Append(payload []byte) (int64, error) {
	if len(payload) > maxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d byte limit", len(payload), maxRecordBytes)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: log is closed")
	}
	if l.activeOff > 0 && l.activeOff >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	need := frameHeaderBytes + len(payload)
	if cap(l.frameBuf) < need {
		l.frameBuf = make([]byte, 0, need*2)
	}
	frame := l.frameBuf[:need]
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(frame[0:4])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.LittleEndian.PutUint32(frame[4:8], crc)
	copy(frame[frameHeaderBytes:], payload)
	if _, err := l.active.Write(frame); err != nil {
		l.mu.Unlock()
		return 0, fmt.Errorf("wal: appending record: %w", err)
	}
	l.activeOff += int64(need)
	l.segs[len(l.segs)-1].bytes = l.activeOff
	l.lastLSN++
	lsn := l.lastLSN
	pos := l.basePos + l.activeOff
	l.sm.Lock()
	l.writePos = pos
	l.statAppends++
	l.statBytes += int64(need)
	l.sm.Unlock()
	l.mu.Unlock()

	if l.opts.NoSync {
		return lsn, nil
	}
	if l.opts.FsyncEvery <= 1 {
		return lsn, l.waitDurable(pos)
	}
	l.sm.Lock()
	l.sinceSync++
	flush := l.sinceSync >= l.opts.FsyncEvery
	l.sm.Unlock()
	if flush {
		return lsn, l.waitDurable(pos)
	}
	return lsn, nil
}

// Sync forces everything appended so far to stable storage.
func (l *Log) Sync() error {
	if l.opts.NoSync {
		return nil
	}
	l.sm.Lock()
	pos := l.writePos
	l.sm.Unlock()
	return l.waitDurable(pos)
}

// waitDurable blocks until the global byte position pos is fsynced.
// The first blocked appender becomes the syncer for everyone queued
// behind it: it fsyncs up to the current write position and wakes all
// waiters whose records that covers.
func (l *Log) waitDurable(pos int64) error {
	l.sm.Lock()
	defer l.sm.Unlock()
	for l.syncedPos < pos {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.syncing {
			l.syncCond.Wait()
			continue
		}
		l.syncing = true
		target := l.writePos
		f := l.syncFile
		l.sm.Unlock()
		start := time.Now()
		err := f.Sync()
		elapsed := time.Since(start).Nanoseconds()
		l.sm.Lock()
		l.syncing = false
		l.statFsyncs++
		l.statFsyncNanos += elapsed
		l.statLastFsync = elapsed
		l.sinceSync = 0
		if err != nil {
			l.syncErr = fmt.Errorf("wal: fsync: %w", err)
		} else if target > l.syncedPos {
			l.syncedPos = target
		}
		l.syncCond.Broadcast()
	}
	return nil
}

// rotateLocked seals the active segment (draining any in-flight fsync
// and syncing the remainder) and starts a new one. Caller holds mu.
func (l *Log) rotateLocked() error {
	l.sm.Lock()
	for l.syncing {
		l.syncCond.Wait()
	}
	l.sm.Unlock()
	if !l.opts.NoSync {
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("wal: syncing sealed segment: %w", err)
		}
	}
	if err := l.active.Close(); err != nil {
		return fmt.Errorf("wal: closing sealed segment: %w", err)
	}
	first := l.lastLSN + 1
	f, path, err := createSegment(l.dir, first, l.opts.NoSync)
	if err != nil {
		return err
	}
	l.segs = append(l.segs, segment{path: path, firstLSN: first})
	l.basePos += l.activeOff
	l.activeOff = 0
	l.active = f
	l.sm.Lock()
	l.syncFile = f
	l.writePos = l.basePos
	if l.basePos > l.syncedPos {
		l.syncedPos = l.basePos // the sealed segment was just fsynced
	}
	l.syncCond.Broadcast()
	l.sm.Unlock()
	return nil
}

// Close syncs outstanding records and closes the active segment.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	if err := l.Sync(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.active.Close()
}

// --- segment files ---------------------------------------------------------

const segmentSuffix = ".wal"

func segmentName(firstLSN int64) string {
	return fmt.Sprintf("%016x%s", firstLSN, segmentSuffix)
}

func createSegment(dir string, firstLSN int64, noSync bool) (*os.File, string, error) {
	path := filepath.Join(dir, segmentName(firstLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, "", fmt.Errorf("wal: creating segment: %w", err)
	}
	if !noSync {
		durable.SyncDir(dir)
	}
	return f, path, nil
}

func listSegments(dir string) ([]segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: listing %s: %w", dir, err)
	}
	var segs []segment
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		hexPart := strings.TrimSuffix(name, segmentSuffix)
		first, err := strconv.ParseInt(hexPart, 16, 64)
		if err != nil || first < 1 || len(hexPart) != 16 {
			return nil, fmt.Errorf("wal: unrecognized segment file name %q", name)
		}
		segs = append(segs, segment{path: filepath.Join(dir, name), firstLSN: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstLSN < segs[j].firstLSN })
	return segs, nil
}

// parseFrame validates the frame at buf[off:]. ok reports a valid
// frame; n is its total size including the header.
func parseFrame(buf []byte, off int) (payload []byte, n int, ok bool) {
	if len(buf)-off < frameHeaderBytes {
		return nil, 0, false
	}
	plen := binary.LittleEndian.Uint32(buf[off : off+4])
	if plen > maxRecordBytes || off+frameHeaderBytes+int(plen) > len(buf) {
		return nil, 0, false
	}
	want := binary.LittleEndian.Uint32(buf[off+4 : off+8])
	crc := crc32.ChecksumIEEE(buf[off : off+4])
	crc = crc32.Update(crc, crc32.IEEETable, buf[off+frameHeaderBytes:off+frameHeaderBytes+int(plen)])
	if crc != want {
		return nil, 0, false
	}
	return buf[off+frameHeaderBytes : off+frameHeaderBytes+int(plen)], frameHeaderBytes + int(plen), true
}

// scanSegment walks every frame in one segment file. For the final
// segment an invalid frame with no parseable frame anywhere after it
// is a torn tail (torn=true, tearOff = where to truncate); an invalid
// frame followed by recoverable data — in any segment — is hard
// corruption.
func scanSegment(path string, isLast bool) (count int, validBytes int64, tearOff int64, torn bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, false, fmt.Errorf("wal: reading segment: %w", err)
	}
	off := 0
	for off < len(buf) {
		_, n, ok := parseFrame(buf, off)
		if !ok {
			if isLast && !resyncFinds(buf, off+1) {
				return count, int64(off), int64(off), true, nil
			}
			reason := "crc mismatch"
			if len(buf)-off < frameHeaderBytes {
				reason = "truncated frame header"
			}
			return 0, 0, 0, false, &CorruptError{Segment: path, Offset: int64(off), Reason: reason}
		}
		off += n
		count++
	}
	return count, int64(off), 0, false, nil
}

// resyncFinds scans forward byte-by-byte for any parseable frame — the
// discriminator between a torn tail (nothing after the damage) and
// mid-log corruption (valid records stranded behind it).
func resyncFinds(buf []byte, from int) bool {
	for p := from; p+frameHeaderBytes <= len(buf); p++ {
		if _, _, ok := parseFrame(buf, p); ok {
			return true
		}
	}
	return false
}
