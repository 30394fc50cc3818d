package storage

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"factorml/internal/durable"
)

// blobDir is the subdirectory of a database directory holding named blobs
// (model payloads and other non-tabular artifacts persisted through the
// catalog directory).
const blobDir = "blobs"

// validName reports whether name is safe to use as a file name inside the
// database directory — the one rule for table and blob names: non-empty,
// at most 128 bytes, no path separators, no leading dot (so no durable temp
// file), only letters, digits, '.', '_' and '-'.
func validName(name string) bool {
	if name == "" || len(name) > 128 || strings.HasPrefix(name, ".") {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

func (db *Database) blobPath(name string) (string, error) {
	if !validName(name) {
		return "", fmt.Errorf("storage: invalid blob name %q", name)
	}
	return filepath.Join(db.dir, blobDir, name), nil
}

// PutBlob atomically and durably persists a named blob in the database
// directory, replacing any previous contents. Blobs survive Close/Open
// cycles of the database and are listed by BlobNames. The write goes
// through durable.WriteFile with fsync, so a power cut leaves the old blob
// or the new one, never an empty file under the blob's name.
func (db *Database) PutBlob(name string, data []byte) error {
	path, err := db.blobPath(name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("storage: creating blob dir: %w", err)
	}
	durable.SyncDir(db.dir) // the blob directory's own name
	if err := durable.WriteFile(path, true, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}); err != nil {
		return fmt.Errorf("storage: writing blob %q: %w", name, err)
	}
	return nil
}

// GetBlob returns the contents of a named blob. A missing blob is an error
// that satisfies errors.Is(err, os.ErrNotExist).
func (db *Database) GetBlob(name string) ([]byte, error) {
	path, err := db.blobPath(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: reading blob %q: %w", name, err)
	}
	return data, nil
}

// DeleteBlob removes a named blob. Deleting a missing blob is an error that
// satisfies errors.Is(err, os.ErrNotExist).
func (db *Database) DeleteBlob(name string) error {
	path, err := db.blobPath(name)
	if err != nil {
		return err
	}
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("storage: deleting blob %q: %w", name, err)
	}
	return nil
}

// BlobNames lists the stored blobs in sorted order.
func (db *Database) BlobNames() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(db.dir, blobDir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("storage: listing blobs: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() || !validName(e.Name()) {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}
