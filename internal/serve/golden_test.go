package serve

import (
	"encoding/hex"
	"math"
	"testing"
)

// TestWireGoldenBytes pins the exact FMB1 bytes of a predict request and of
// an NN and a GMM response, each response carrying one row error. Deployed
// clients speak these bytes, so a codec change that moves one fails here.
// Each golden value must also decode and re-encode to itself.
func TestWireGoldenBytes(t *testing.T) {
	req, err := AppendBinaryRequest(nil, []Row{
		{Fact: []float64{1, math.NaN()}, FKs: []int64{7}},
		{Fact: []float64{math.Inf(-1), -0.5}, FKs: []int64{-3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const wantReq = "464d423101000000" + "02000000" + "02000000" + "01000000" +
		"000000000000f03f" + "010000000000f87f" + "0700000000000000" +
		"000000000000f0ff" + "000000000000e0bf" + "fdffffffffffffff"
	if got := hex.EncodeToString(req); got != wantReq {
		t.Errorf("request:\n got %s\nwant %s", got, wantReq)
	}
	var bufs predictBuffers
	if err := decodeBinaryRequest(req, &bufs); err != nil {
		t.Fatalf("decoding the golden request: %v", err)
	}
	if again, err := AppendBinaryRequest(nil, bufs.rows); err != nil || string(again) != string(req) {
		t.Errorf("golden request re-encodes to %x (%v)", again, err)
	}

	rowErr := Prediction{Code: "unknown_foreign_key", Err: "no key 9"}
	responses := []struct {
		name  string
		info  ModelInfo
		preds []Prediction
		want  string
	}{
		{"nn", ModelInfo{Name: "net", Kind: KindNN, Version: 3},
			[]Prediction{{Output: 0.75}, rowErr},
			"464d423102000000" + "0300" + "6e6574" + "03000000" + "02000000" +
				"00" + "000000000000e83f" +
				"01" + "1300" + "756e6b6e6f776e5f666f726569676e5f6b6579" + "0800" + "6e6f206b65792039"},
		{"gmm", ModelInfo{Name: "mix", Kind: KindGMM, Version: 2},
			[]Prediction{rowErr, {LogProb: -1.25, Cluster: 4}},
			"464d423102010000" + "0300" + "6d6978" + "02000000" + "02000000" +
				"01" + "1300" + "756e6b6e6f776e5f666f726569676e5f6b6579" + "0800" + "6e6f206b65792039" +
				"00" + "000000000000f4bf" + "04000000"},
	}
	for _, r := range responses {
		enc := appendBinaryResponse(nil, r.info, r.preds)
		if got := hex.EncodeToString(enc); got != r.want {
			t.Errorf("%s response:\n got %s\nwant %s", r.name, got, r.want)
			continue
		}
		info, preds, err := DecodeBinaryResponse(enc)
		if err != nil {
			t.Errorf("%s response: decode: %v", r.name, err)
			continue
		}
		if again := appendBinaryResponse(nil, info, preds); string(again) != string(enc) {
			t.Errorf("%s response re-encodes to %x", r.name, again)
		}
	}
}
