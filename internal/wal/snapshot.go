package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"factorml/internal/durable"
)

// Snapshot rotation. A checkpoint writes its files (catalog, dimension
// heaps, model blobs, stream state) into a staging directory, then
// Commit makes it the recovery point atomically:
//
//	walDir/
//	  0000000000000001.wal      segments
//	  snap-000000000000002a/    committed snapshot covering LSN 0x2a
//	  CURRENT                   names the committed snapshot
//	  CLEAN                     present only after a graceful close
//
// Commit fsyncs the staged tree, renames it into place, replaces CURRENT,
// prunes superseded snapshots, and drops WAL segments the snapshot fully
// covers, every step through internal/durable. A crash anywhere in that
// sequence leaves the old snapshot or the new one committed — never a
// half state — because CURRENT is the single commit point.

const (
	currentFile = "CURRENT"
	cleanFile   = "CLEAN"
	snapPrefix  = "snap-"
)

func snapDirName(lsn int64) string {
	return fmt.Sprintf("%s%016x", snapPrefix, lsn)
}

// CurrentSnapshot resolves the committed snapshot in a WAL directory:
// its path and the LSN it covers. ok is false when no snapshot has
// been committed (fresh or absent directory).
func CurrentSnapshot(dir string) (path string, lsn int64, ok bool, err error) {
	raw, err := os.ReadFile(filepath.Join(dir, currentFile))
	if os.IsNotExist(err) {
		return "", 0, false, nil
	}
	if err != nil {
		return "", 0, false, fmt.Errorf("wal: reading CURRENT: %w", err)
	}
	name := strings.TrimSpace(string(raw))
	hexPart := strings.TrimPrefix(name, snapPrefix)
	if hexPart == name || len(hexPart) != 16 {
		return "", 0, false, fmt.Errorf("wal: CURRENT names malformed snapshot %q", name)
	}
	lsn, perr := strconv.ParseInt(hexPart, 16, 64)
	if perr != nil {
		return "", 0, false, fmt.Errorf("wal: CURRENT names malformed snapshot %q", name)
	}
	path = filepath.Join(dir, name)
	if _, err := os.Stat(path); err != nil {
		return "", 0, false, fmt.Errorf("wal: CURRENT names %s: %w", name, err)
	}
	return path, lsn, true, nil
}

// MarkClean records a graceful shutdown: on the next open the live
// database files can be trusted as-is (they may even be ahead of the
// log, e.g. after an offline training run) instead of restoring the
// snapshot.
func MarkClean(dir string) error {
	if err := durable.WriteFile(filepath.Join(dir, cleanFile), true, func(w io.Writer) error {
		_, err := io.WriteString(w, "clean\n")
		return err
	}); err != nil {
		return fmt.Errorf("wal: writing CLEAN: %w", err)
	}
	return nil
}

// IsClean reports whether the directory carries the graceful-shutdown
// marker.
func IsClean(dir string) (bool, error) {
	_, err := os.Stat(filepath.Join(dir, cleanFile))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("wal: checking CLEAN: %w", err)
	}
	return true, nil
}

// ClearClean removes the graceful-shutdown marker; from here until the
// next MarkClean, an open of this directory takes the crash-recovery
// path.
func ClearClean(dir string) error {
	err := os.Remove(filepath.Join(dir, cleanFile))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("wal: clearing CLEAN: %w", err)
	}
	durable.SyncDir(dir)
	return nil
}

// Snapshot is a checkpoint under construction. The caller writes files
// into Dir (subdirectories allowed), then calls Commit or Abort.
type Snapshot struct {
	Dir string
	l   *Log
}

// BeginSnapshot stages a new checkpoint directory.
func (l *Log) BeginSnapshot() (*Snapshot, error) {
	tmp, err := os.MkdirTemp(l.dir, ".tmp-snap-")
	if err != nil {
		return nil, fmt.Errorf("wal: staging snapshot: %w", err)
	}
	return &Snapshot{Dir: tmp, l: l}, nil
}

// Abort discards the staged checkpoint.
func (s *Snapshot) Abort() {
	os.RemoveAll(s.Dir)
}

// Commit publishes the staged checkpoint as covering every record
// through lsn: fsync the staged tree, rename it into place, swap
// CURRENT, then prune superseded snapshots and fully-covered WAL
// segments.
func (s *Snapshot) Commit(lsn int64) error {
	l := s.l
	sync := !l.opts.NoSync
	if sync {
		if err := durable.SyncTree(s.Dir); err != nil {
			s.Abort()
			return fmt.Errorf("wal: syncing snapshot: %w", err)
		}
	}
	final := filepath.Join(l.dir, snapDirName(lsn))
	if err := os.RemoveAll(final); err != nil {
		s.Abort()
		return fmt.Errorf("wal: clearing stale snapshot %s: %w", final, err)
	}
	if err := durable.Rename(s.Dir, final, sync); err != nil {
		s.Abort()
		return fmt.Errorf("wal: publishing snapshot: %w", err)
	}

	// Replace CURRENT — the commit point.
	if err := durable.WriteFile(filepath.Join(l.dir, currentFile), sync, func(w io.Writer) error {
		_, err := io.WriteString(w, snapDirName(lsn)+"\n")
		return err
	}); err != nil {
		return fmt.Errorf("wal: swapping CURRENT: %w", err)
	}

	l.mu.Lock()
	l.snapLSN = lsn
	// Seal the active segment if the snapshot covers all of it, so
	// the covered records can be dropped below.
	if l.lastLSN <= lsn && l.activeOff > 0 {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return err
		}
	}
	// Drop sealed segments whose every record is covered.
	kept := l.segs[:0]
	for i := range l.segs {
		last := i == len(l.segs)-1
		if !last && l.segs[i+1].firstLSN-1 <= lsn {
			os.Remove(l.segs[i].path)
			continue
		}
		kept = append(kept, l.segs[i])
	}
	l.segs = append([]segment(nil), kept...)
	l.mu.Unlock()

	// Remove superseded snapshot directories.
	entries, err := os.ReadDir(l.dir)
	if err == nil {
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() && strings.HasPrefix(name, snapPrefix) && name != snapDirName(lsn) {
				os.RemoveAll(filepath.Join(l.dir, name))
			}
		}
	}
	if sync {
		durable.SyncDir(l.dir)
	}
	return nil
}
