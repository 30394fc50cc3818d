// Package durable is the one place that knows how a file is replaced so a
// crash leaves its old bytes or its new ones: write a temp file beside the
// target, flush, fsync, close, rename it over the target, fsync the
// directory. The temp is ".<base>.tmp"; its leading dot keeps it out of the
// storage engine's table and blob names.
package durable

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with the bytes write produces, through
// a buffered temp file in the same (existing) directory. When sync is set
// the temp is fsynced before the rename and the directory after it. On any
// failure the temp is removed and path keeps its old contents.
func WriteFile(path string, sync bool, write func(io.Writer) error) error {
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = Rename(tmp, path, sync)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// CopyFile atomically replaces dst with the contents of src, as WriteFile.
func CopyFile(dst, src string, sync bool) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	return WriteFile(dst, sync, func(w io.Writer) error {
		_, err := io.Copy(w, in)
		return err
	})
}

// Rename moves oldpath to newpath, then fsyncs newpath's directory when
// sync is set so the new name survives a power cut.
func Rename(oldpath, newpath string, sync bool) error {
	err := os.Rename(oldpath, newpath)
	if err == nil && sync {
		SyncDir(filepath.Dir(newpath))
	}
	return err
}

// SyncTree fsyncs every file and directory under root, root included. An
// error names the path that failed.
func SyncTree(root string) error {
	return filepath.Walk(root, func(path string, _ os.FileInfo, err error) error {
		if err == nil {
			err = syncPath(path)
		}
		if err != nil {
			return fmt.Errorf("durable: syncing %s: %w", path, err)
		}
		return nil
	})
}

// SyncDir fsyncs a directory so the creates, renames and removes in it are
// durable. Errors are ignored: not every filesystem supports a directory
// fsync, and the files themselves are synced separately.
func SyncDir(dir string) { syncPath(dir) }

func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
