package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Snapshot rotation. A checkpoint writes its files (catalog, dimension
// heaps, model blobs, stream state) into a staging directory, then
// Commit makes it the recovery point atomically:
//
//	walDir/
//	  0000000000000001.wal      segments
//	  snap-000000000000002a/    committed snapshot covering LSN 0x2a
//	  CURRENT                   names the committed snapshot (tmp+rename)
//	  CLEAN                     present only after a graceful close
//
// Commit fsyncs the staged files, renames the directory into place,
// swaps CURRENT via a temp file + rename, prunes superseded snapshots,
// and drops WAL segments the snapshot fully covers. A crash anywhere
// in that sequence leaves either the old snapshot or the new one
// committed — never a half state — because CURRENT is the single
// commit point.

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
	path := filepath.Join(dir, cleanFile)
	if err := os.WriteFile(path, []byte("clean\n"), 0o644); err != nil {
		return fmt.Errorf("wal: writing CLEAN: %w", err)
	}
	syncDir(dir)
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
	syncDir(dir)
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
	if !l.opts.NoSync {
		if err := syncTree(s.Dir); err != nil {
			s.Abort()
			return err
		}
	}
	final := filepath.Join(l.dir, snapDirName(lsn))
	if err := os.RemoveAll(final); err != nil {
		s.Abort()
		return fmt.Errorf("wal: clearing stale snapshot %s: %w", final, err)
	}
	if err := os.Rename(s.Dir, final); err != nil {
		s.Abort()
		return fmt.Errorf("wal: publishing snapshot: %w", err)
	}
	if !l.opts.NoSync {
		syncDir(l.dir)
	}

	// Swap CURRENT — the commit point.
	tmp := filepath.Join(l.dir, ".CURRENT.tmp")
	if err := writeFile(tmp, []byte(snapDirName(lsn)+"\n"), !l.opts.NoSync); err != nil {
		return fmt.Errorf("wal: staging CURRENT: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(l.dir, currentFile)); err != nil {
		return fmt.Errorf("wal: swapping CURRENT: %w", err)
	}
	if !l.opts.NoSync {
		syncDir(l.dir)
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
	if !l.opts.NoSync {
		syncDir(l.dir)
	}
	return nil
}

// writeFile writes blob to path through one handle — fsyncing it before
// the close when sync is set — and returns the first error, so a file that
// never reached disk is never renamed into place.
func writeFile(path string, blob []byte, sync bool) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(blob)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncTree fsyncs every regular file under root, then the directories.
func syncTree(root string) error {
	return filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("wal: syncing snapshot file %s: %w", path, err)
		}
		serr := f.Sync()
		f.Close()
		if serr != nil {
			return fmt.Errorf("wal: syncing snapshot file %s: %w", path, serr)
		}
		return nil
	})
}
