package serve_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"factorml/internal/serve"
	"factorml/internal/storage"
)

func TestRegistrySaveLoadList(t *testing.T) {
	dir := t.TempDir()
	db, spec := testStar(t, dir)
	net, model := trainModels(t, db, spec)

	reg, err := serve.NewRegistry(db)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 0 {
		t.Fatalf("fresh registry has %d models", reg.Len())
	}
	if err := reg.SaveNN("m-nn", net); err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveGMM("m-gmm", model); err != nil {
		t.Fatal(err)
	}

	infos := reg.List()
	if len(infos) != 2 || infos[0].Name != "m-gmm" || infos[1].Name != "m-nn" {
		t.Fatalf("List = %+v", infos)
	}
	if infos[0].Kind != serve.KindGMM || infos[0].Version != 1 || infos[0].Dim != model.D {
		t.Fatalf("gmm info = %+v", infos[0])
	}
	if infos[1].Kind != serve.KindNN || infos[1].Dim != net.InputDim() {
		t.Fatalf("nn info = %+v", infos[1])
	}

	// Overwriting bumps the version.
	if err := reg.SaveNN("m-nn", net); err != nil {
		t.Fatal(err)
	}
	if info, _ := reg.Get("m-nn"); info.Version != 2 {
		t.Fatalf("version after re-save = %d, want 2", info.Version)
	}

	// Kind-mismatched lookups fail clearly.
	if _, err := reg.GMM("m-nn"); err == nil || !strings.Contains(err.Error(), "not a gmm") {
		t.Fatalf("GMM(m-nn) = %v", err)
	}
	if _, err := reg.NN("m-gmm"); err == nil || !strings.Contains(err.Error(), "not a nn") {
		t.Fatalf("NN(m-gmm) = %v", err)
	}
	if _, err := reg.NN("absent"); !serve.IsUnknownModel(err) {
		t.Fatalf("NN(absent) = %v, want unknown-model", err)
	}

	// Reboot: a fresh registry over a reopened database loads everything,
	// bit-for-bit.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := storage.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	reg2, err := serve.NewRegistry(db2)
	if err != nil {
		t.Fatal(err)
	}
	if reg2.Len() != 2 {
		t.Fatalf("rebooted registry has %d models, want 2", reg2.Len())
	}
	net2, err := reg2.NN("m-nn")
	if err != nil {
		t.Fatal(err)
	}
	if d := net.MaxParamDiff(net2); d != 0 {
		t.Fatalf("reloaded network differs by %g, want bit-identical", d)
	}
	model2, err := reg2.GMM("m-gmm")
	if err != nil {
		t.Fatal(err)
	}
	if d := model.MaxParamDiff(model2); d != 0 {
		t.Fatalf("reloaded mixture differs by %g, want bit-identical", d)
	}
	if info, _ := reg2.Get("m-nn"); info.Version != 2 {
		t.Fatalf("rebooted version = %d, want 2", info.Version)
	}

	// Delete removes from memory and disk.
	if err := reg2.Delete("m-gmm"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg2.GMM("m-gmm"); !serve.IsUnknownModel(err) {
		t.Fatalf("GMM after delete = %v", err)
	}
	if err := reg2.Delete("m-gmm"); !serve.IsUnknownModel(err) {
		t.Fatalf("double delete = %v", err)
	}
	names, err := db2.BlobNames()
	if err != nil || len(names) != 1 {
		t.Fatalf("blobs after delete = %v, %v", names, err)
	}
}

// A blob under the model prefix whose suffix is no model name is not the
// registry's: the boot skips it (or, for an older release's crash leftover
// "model.m.tmp", deletes it), and a tool may store anything under a valid
// blob name.
func TestRegistrySkipsForeignModelBlobs(t *testing.T) {
	dir := t.TempDir()
	db, spec := testStar(t, dir)
	defer db.Close()
	net, _ := trainModels(t, db, spec)
	reg, err := serve.NewRegistry(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveNN("m", net); err != nil {
		t.Fatal(err)
	}
	blob, err := db.GetBlob("model.m")
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"model.m.tmp":     blob[:len(blob)/2], // torn
		"model.notes.txt": []byte("not an envelope"),
		"model.-x":        blob,
	} {
		if err := db.PutBlob(name, data); err != nil {
			t.Fatal(err)
		}
	}
	reg, err = serve.NewRegistry(db)
	if err != nil {
		t.Fatalf("NewRegistry over foreign model blobs: %v", err)
	}
	if got := reg.List(); len(got) != 1 || got[0].Name != "m" {
		t.Fatalf("registry lists %+v, want model m only", got)
	}
}

// An older release's crash leftover "model.<name>.tmp" is removed when the
// registry opens, so no later checkpoint copies it; other foreign blobs stay.
func TestRegistryRemovesLeftoverModelTemp(t *testing.T) {
	db, _ := testStar(t, t.TempDir())
	defer db.Close()
	for _, name := range []string{"model.m.tmp", "model.-x.tmp", "model.notes.txt", "other.tmp"} {
		if err := db.PutBlob(name, []byte("torn")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := serve.NewRegistry(db); err != nil {
		t.Fatal(err)
	}
	names, err := db.BlobNames()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"model.-x.tmp", "model.notes.txt", "other.tmp"}; !slices.Equal(names, want) {
		t.Fatalf("blobs after NewRegistry: %v, want %v", names, want)
	}
}

func TestRegistryNameValidation(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, _ := trainModels(t, db, spec)
	reg, err := serve.NewRegistry(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "-leading", "_x", "has space", "a/b", strings.Repeat("x", 65)} {
		if err := reg.SaveNN(bad, net); err == nil {
			t.Errorf("SaveNN(%q) accepted an invalid name", bad)
		}
	}
	for _, good := range []string{"m1", "My-Model_2", "0"} {
		if err := reg.SaveNN(good, net); err != nil {
			t.Errorf("SaveNN(%q): %v", good, err)
		}
	}
}

// TestRegistryConcurrentAccess hammers the registry from many goroutines;
// run with -race this pins the locking discipline.
func TestRegistryConcurrentAccess(t *testing.T) {
	db, spec := testStar(t, t.TempDir())
	defer db.Close()
	net, model := trainModels(t, db, spec)
	reg, err := serve.NewRegistry(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.SaveNN("shared", net); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("own-%d", g)
			for i := 0; i < 20; i++ {
				switch g % 4 {
				case 0:
					if err := reg.SaveNN(name, net); err != nil {
						t.Error(err)
					}
				case 1:
					if err := reg.SaveGMM(name, model); err != nil {
						t.Error(err)
					}
				case 2:
					if _, err := reg.NN("shared"); err != nil {
						t.Error(err)
					}
				case 3:
					reg.List()
					reg.Get("shared")
					reg.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if info, ok := reg.Get("own-0"); !ok || info.Version != 20 {
		t.Fatalf("own-0 info = %+v, %v (want version 20)", info, ok)
	}
}
