package storage

import (
	"errors"
	"os"
	"reflect"
	"testing"
)

func TestBlobRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.PutBlob("model.m1", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := db.PutBlob("model.m2", []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := db.GetBlob("model.m1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"a":1}` {
		t.Fatalf("blob contents %q", got)
	}

	// Overwrite is atomic and visible.
	if err := db.PutBlob("model.m1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err = db.GetBlob("model.m1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("blob contents after overwrite %q", got)
	}

	names, err := db.BlobNames()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"model.m1", "model.m2"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("BlobNames = %v, want %v", names, want)
	}

	// Blobs survive a close/reopen cycle.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, err = db2.GetBlob("model.m2")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Fatalf("blob contents after reopen %q", got)
	}

	if err := db2.DeleteBlob("model.m2"); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.GetBlob("model.m2"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("GetBlob after delete: %v, want not-exist", err)
	}
	if err := db2.DeleteBlob("model.m2"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("double delete: %v, want not-exist", err)
	}
}

// A blob whose name ends in ".tmp" is a blob like any other: listed, and
// untouched by the write of the blob whose name it extends.
func TestBlobNamedLikeTempSurvives(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.PutBlob("a.tmp", []byte("mine")); err != nil {
		t.Fatal(err)
	}
	if err := db.PutBlob("a", []byte("other")); err != nil {
		t.Fatal(err)
	}
	if got, err := db.GetBlob("a.tmp"); err != nil || string(got) != "mine" {
		t.Fatalf("GetBlob(a.tmp) after PutBlob(a) = %q, %v; want %q", got, err, "mine")
	}
	names, err := db.BlobNames()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "a.tmp"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("BlobNames = %v, want %v", names, want)
	}
}

func TestBlobNameValidation(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for _, bad := range []string{"", ".", "..", ".hidden", "a/b", "a\\b", "a b", "café", string(make([]byte, 200))} {
		if err := db.PutBlob(bad, []byte("x")); err == nil {
			t.Errorf("PutBlob(%q) accepted an invalid name", bad)
		}
		if _, err := db.GetBlob(bad); err == nil {
			t.Errorf("GetBlob(%q) accepted an invalid name", bad)
		}
	}
	if _, err := db.GetBlob("missing"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("GetBlob(missing): %v, want not-exist", err)
	}
	// An empty blob directory lists as empty, not as an error.
	names, err := db.BlobNames()
	if err != nil || len(names) != 0 {
		t.Fatalf("BlobNames on fresh db = %v, %v", names, err)
	}
}
