package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"factorml/internal/gmm"
	"factorml/internal/linalg"
	"factorml/internal/monitor"
	"factorml/internal/nn"
)

// FuzzDecodeEnvelope throws arbitrary blobs at the registry's model
// envelope decoder, what NewRegistry runs over every model blob on boot. It
// must reject a blob or return an entry that saves again into an envelope
// which decodes to an entry saving to the same bytes — name, kind, version,
// save time, lineage and model all survive a save and a load. It must never
// panic.
func FuzzDecodeEnvelope(f *testing.F) {
	mix := &gmm.Model{K: 1, D: 2, Weights: []float64{1}, Means: [][]float64{{0.5, -1}}, Covs: []*linalg.Dense{linalg.Diag([]float64{1, 1})}}
	net, err := nn.NewNetwork([]int{2, 3, 1}, nn.Sigmoid, 1)
	if err != nil {
		f.Fatal(err)
	}
	lin := &monitor.Lineage{TrainedAtUnix: 1700000000, TrainingRows: 40, Strategy: "factorized",
		Baseline: &monitor.Baseline{Rows: 40, Columns: []monitor.ColumnBaseline{{Table: "S", Name: "x0"}}}}
	for _, e := range []*entry{
		{info: ModelInfo{Name: "mix", Kind: KindGMM, Version: 3}, gmm: mix},
		{info: ModelInfo{Name: "net", Kind: KindNN, Version: 1, Lineage: lin}, nn: net},
	} {
		blob, err := encodeEntry(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"format":1,"name":"x","kind":"gmm","version":1,"payload":{"version":1,"k":1,"d":1,"weights":[1],"means":[[0]],"covs":[[-1]]}}`))
	f.Add([]byte(`{"format":1,"name":"x","kind":"nn","version":1,"payload":{}}`))
	f.Add([]byte(`{"format":2,"name":"x","kind":"gmm"}`))
	f.Add([]byte(`{"format":1,"name":"../x","kind":"tree","payload":null}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		e, err := decodeEnvelope(blob)
		if err != nil {
			return
		}
		again, err := encodeEntry(e)
		if err != nil {
			t.Fatalf("decoded entry %+v does not save again: %v", e.info, err)
		}
		back, err := decodeEnvelope(again)
		if err != nil {
			t.Fatalf("re-saved envelope does not decode: %v\n%s", err, again)
		}
		if again2, err := encodeEntry(back); err != nil || !bytes.Equal(again2, again) {
			t.Fatalf("entry changed across a save and a load (%v):\n%s\n%s", err, again, again2)
		}
		if back.info.Dim != e.info.Dim {
			t.Fatalf("dimension %d came back as %d", e.info.Dim, back.info.Dim)
		}
	})
}

// encodeEntry writes e as the registry saves it: its model's serialized
// form inside an envelope carrying e's info.
func encodeEntry(e *entry) ([]byte, error) {
	var payload bytes.Buffer
	var err error
	if e.gmm != nil {
		err = e.gmm.Save(&payload)
	} else {
		err = e.nn.Save(&payload)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(&envelope{
		Format: envelopeFormat, Name: e.info.Name, Kind: e.info.Kind, Version: e.info.Version,
		SavedAtUnix: e.info.SavedAt.Unix(), Lineage: e.info.Lineage, Payload: bytes.TrimSpace(payload.Bytes()),
	})
}
