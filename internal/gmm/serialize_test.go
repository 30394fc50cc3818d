package gmm

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestModelSaveLoadRoundTrip(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 300, 15, 2, 3)
	res, err := TrainF(db, spec, Config{K: 3, MaxIter: 3, Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Model.MaxParamDiff(loaded); d != 0 {
		t.Fatalf("round trip changed parameters by %v", d)
	}
	// The loaded model must be usable for inference.
	x := make([]float64, res.Model.D)
	if got, want := loaded.LogProb(x), res.Model.LogProb(x); got != want {
		t.Fatalf("LogProb after load: %v vs %v", got, want)
	}
}

// The covariance structure is saved with the model — as a key only a
// diagonal one carries, so a full-covariance model's bytes (registry files,
// WAL attach records, checkpoints) are what they were before the field.
func TestModelSaveRecordsStructure(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 300, 15, 2, 3)
	for _, diagonal := range []bool{false, true} {
		res, err := TrainF(db, spec, Config{K: 3, MaxIter: 3, Tol: 1e-12, Diagonal: diagonal})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Model.Save(&buf); err != nil {
			t.Fatal(err)
		}
		saved := buf.String()
		loaded, err := LoadModel(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Diagonal != diagonal || res.Model.MaxParamDiff(loaded) != 0 {
			t.Fatalf("Diagonal=%v round trip: loaded Diagonal=%v, diff %v", diagonal, loaded.Diagonal, res.Model.MaxParamDiff(loaded))
		}
		if diagonal {
			if !strings.Contains(saved, `"d":5,"diagonal":true,`) {
				t.Fatalf("diagonal model saved without its structure: %.80s", saved)
			}
			continue
		}
		// The layout Save had before models carried their structure.
		legacy := struct {
			Version int         `json:"version"`
			K       int         `json:"k"`
			D       int         `json:"d"`
			Weights []float64   `json:"weights"`
			Means   [][]float64 `json:"means"`
			Covs    [][]float64 `json:"covs"`
		}{Version: 1, K: loaded.K, D: loaded.D, Weights: loaded.Weights, Means: loaded.Means}
		for _, c := range loaded.Covs {
			legacy.Covs = append(legacy.Covs, c.Data())
		}
		want, _ := json.Marshal(legacy)
		if saved != string(want)+"\n" {
			t.Fatalf("full-covariance bytes changed:\n got %.120s\nwant %.120s", saved, want)
		}
	}
}

// A model flagged diagonal that carries an off-diagonal entry is outside
// input the diagonal kernels would silently ignore: LoadModel names the
// component and the cell.
func TestLoadModelRejectsDiagonalWithOffDiagonal(t *testing.T) {
	blob := `{"version":1,"k":2,"d":2,"diagonal":true,"weights":[0.5,0.5],"means":[[0,0],[1,1]],"covs":[[1,0,0,1],[1,0,0.25,1]]}`
	_, err := LoadModel(strings.NewReader(blob))
	if err == nil || !strings.Contains(err.Error(), "covariance 1 entry (1,0)") {
		t.Fatalf("LoadModel = %v, want an error naming covariance 1 entry (1,0)", err)
	}
	if _, err := LoadModel(strings.NewReader(strings.Replace(blob, "0.25", "0", 1))); err != nil {
		t.Fatalf("clean diagonal model rejected: %v", err)
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":       "not json at all",
		"bad version":    `{"version":99,"k":1,"d":1,"weights":[1],"means":[[0]],"covs":[[1]]}`,
		"bad shape":      `{"version":1,"k":0,"d":1,"weights":[],"means":[],"covs":[]}`,
		"count mismatch": `{"version":1,"k":2,"d":1,"weights":[1],"means":[[0]],"covs":[[1]]}`,
		"mean dim":       `{"version":1,"k":1,"d":2,"weights":[1],"means":[[0]],"covs":[[1,0,0,1]]}`,
		"cov entries":    `{"version":1,"k":1,"d":2,"weights":[1],"means":[[0,0]],"covs":[[1,0,0]]}`,
	}
	for name, blob := range cases {
		if _, err := LoadModel(strings.NewReader(blob)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// FuzzLoadModel: any input LoadModel accepts re-encodes to bytes that load
// and re-encode identically, and scores one row without panicking.
func FuzzLoadModel(f *testing.F) {
	f.Add([]byte(`{"version":1,"k":1,"d":2,"weights":[1],"means":[[0,0]],"covs":[[1,0,0,1]]}`))
	f.Add([]byte(`{"version":1,"k":2,"d":1,"diagonal":true,"weights":[0.5,0.5],"means":[[0],[1]],"covs":[[1],[2]]}`))
	f.Add([]byte(`{"version":1,"k":1,"d":2,"weights":[-1],"means":[[1e308,0]],"covs":[[0,1,1,0]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := m.Save(&once); err != nil {
			t.Fatal(err)
		}
		again, err := LoadModel(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded model does not load: %v\n%s", err, once.Bytes())
		}
		if err := again.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding moved:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
		x := make([]float64, m.D)
		m.LogProb(x)
		m.Predict(x)
	})
}
