package nn

import (
	"bytes"
	"strings"
	"testing"
)

func TestNetworkSaveLoadRoundTrip(t *testing.T) {
	db := openDB(t)
	spec := synthBinary(t, db, 200, 10, 2, 2)
	res, err := TrainF(db, spec, Config{Hidden: []int{5, 4}, Act: Tanh, Epochs: 2, LearningRate: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := res.Net.MaxParamDiff(loaded); d != 0 {
		t.Fatalf("round trip changed parameters by %v", d)
	}
	x := make([]float64, res.Net.InputDim())
	for i := range x {
		x[i] = 0.3 * float64(i)
	}
	if got, want := loaded.Predict(x), res.Net.Predict(x); got != want {
		t.Fatalf("Predict after load: %v vs %v", got, want)
	}
	if loaded.Act != Tanh {
		t.Fatalf("activation lost: %v", loaded.Act)
	}
}

func TestLoadNetworkRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not json":      "garbage",
		"bad version":   `{"version":9,"sizes":[1,1],"activation":0,"weights":[[1]],"biases":[[0]]}`,
		"too few sizes": `{"version":1,"sizes":[3],"activation":0,"weights":[],"biases":[]}`,
		"layer count":   `{"version":1,"sizes":[2,1],"activation":0,"weights":[],"biases":[]}`,
		"bad act":       `{"version":1,"sizes":[2,1],"activation":42,"weights":[[1,1]],"biases":[[0]]}`,
		"weight size":   `{"version":1,"sizes":[2,1],"activation":0,"weights":[[1]],"biases":[[0]]}`,
		"bias size":     `{"version":1,"sizes":[2,1],"activation":0,"weights":[[1,1]],"biases":[[0,0]]}`,
		"zero size":     `{"version":1,"sizes":[0,1],"activation":0,"weights":[[]],"biases":[[0]]}`,
		"size overflow": `{"version":1,"sizes":[4611686018427387904,4],"activation":0,"weights":[[]],"biases":[[0,0,0,0]]}`,
	}
	for name, blob := range cases {
		if _, err := LoadNetwork(strings.NewReader(blob)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
}

// FuzzLoadNetwork: any input LoadNetwork accepts re-encodes to bytes that
// load and re-encode identically, and scores one row without panicking.
func FuzzLoadNetwork(f *testing.F) {
	net, err := NewNetwork([]int{3, 2, 1}, Tanh, 1)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"version":1,"sizes":[4611686018427387904,4],"activation":0,"weights":[[]],"biases":[[0,0,0,0]]}`))
	f.Add([]byte(`{"version":1,"sizes":[2,2],"activation":3,"weights":[[1,2,3,4]],"biases":[[0,1e308]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		net, err := LoadNetwork(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := net.Save(&once); err != nil {
			t.Fatal(err)
		}
		again, err := LoadNetwork(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded network does not load: %v\n%s", err, once.Bytes())
		}
		if err := again.Save(&twice); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("re-encoding moved:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
		net.Predict(make([]float64, net.InputDim()))
	})
}
