package durable_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"factorml/internal/durable"
	"factorml/internal/storage"
)

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func TestWriteFileFailureKeepsOldBytes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for _, sync := range []bool{false, true} {
		err := durable.WriteFile(path, sync, func(w io.Writer) error {
			if _, err := io.WriteString(w, "half of the new"); err != nil {
				return err
			}
			return boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("sync=%v: WriteFile = %v, want the callback's error", sync, err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
			t.Fatalf("sync=%v: target after a failed write = %q, %v; want the old bytes", sync, got, err)
		}
		if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"state.json"}) {
			t.Fatalf("sync=%v: directory after a failed write holds %v; the temp file must go", sync, names)
		}
	}

	// A successful write replaces the bytes and leaves no temp behind.
	if err := durable.WriteFile(path, true, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "new" {
		t.Fatalf("target after a write = %q, want %q", got, "new")
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"state.json"}) {
		t.Fatalf("directory after a write holds %v", names)
	}
}

// A temp file sits in the target's directory while the callback runs. It
// must never be a name the storage engine accepts or lists, or a blob of
// that name would be overwritten and renamed away by the write of another.
func TestTempNameIsNoStorageName(t *testing.T) {
	db, err := storage.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.PutBlob("a", []byte("first")); err != nil {
		t.Fatal(err)
	}
	blobs := filepath.Join(db.Dir(), "blobs")
	for _, target := range []string{"a", "a.tmp", "model.m1", "catalog.json"} {
		before := map[string]bool{}
		for _, name := range dirNames(t, blobs) {
			before[name] = true
		}
		var temps []string
		err := durable.WriteFile(filepath.Join(blobs, target), false, func(w io.Writer) error {
			for _, name := range dirNames(t, blobs) {
				if !before[name] {
					temps = append(temps, name)
				}
			}
			listed, err := db.BlobNames()
			if err != nil {
				return err
			}
			for _, tmp := range temps {
				for _, name := range listed {
					if name == tmp {
						t.Errorf("BlobNames lists the temp file %q", tmp)
					}
				}
				if err := db.PutBlob(tmp, nil); err == nil {
					t.Errorf("PutBlob accepts the temp name %q", tmp)
				}
				if _, err := db.GetBlob(tmp); err == nil || errors.Is(err, os.ErrNotExist) {
					t.Errorf("GetBlob(%q) = %v, want an invalid-name error", tmp, err)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(temps) != 1 {
			t.Fatalf("writing %q: saw temp files %v, want exactly one", target, temps)
		}
	}
}

func TestCopyFileExactBytes(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src")
	dst := filepath.Join(dir, "dst")
	// Larger than any write buffer, and every byte value.
	want := make([]byte, 3<<16+17)
	rand.New(rand.NewSource(1)).Read(want)
	if err := os.WriteFile(src, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, []byte("longer old contents that must not survive as a tail"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, sync := range []bool{false, true} {
		if err := durable.CopyFile(dst, src, sync); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(dst); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("sync=%v: copy holds %d bytes (%v), want the source's %d", sync, len(got), err, len(want))
		}
	}
	if err := durable.CopyFile(filepath.Join(dir, "dst2"), filepath.Join(dir, "missing"), true); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("copying a missing source: %v, want not-exist", err)
	}
	if names := dirNames(t, dir); !reflect.DeepEqual(names, []string{"dst", "src"}) {
		t.Fatalf("directory after the copies holds %v", names)
	}
}

func TestSyncTreeErrorNamesPath(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "files", "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "files", "blobs", "model.m"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := durable.SyncTree(root); err != nil {
		t.Fatalf("SyncTree on a good tree: %v", err)
	}

	// A dangling link cannot be opened: the error names it.
	bad := filepath.Join(root, "files", "dangling")
	if err := os.Symlink(filepath.Join(root, "nowhere"), bad); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	if err := durable.SyncTree(root); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("SyncTree over a dangling link = %v, want an error naming %s", err, bad)
	}
	missing := filepath.Join(root, "missing")
	if err := durable.SyncTree(missing); err == nil || !strings.Contains(err.Error(), missing) {
		t.Fatalf("SyncTree on a missing root = %v, want an error naming %s", err, missing)
	}
}
