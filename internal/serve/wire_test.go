package serve

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// Two crafted headers that crashed the decoders while they sized buffers
// from header arithmetic instead of codec.Reader.Count.
var (
	// wrapRequest is 20 bytes: nRows = 2³¹ and factW = 2³⁰ wrap
	// nRows·rowBytes to 0, which passed an exact-length check and then
	// panicked in makeslice.
	wrapRequest = []byte("FMB1\x01\x00\x00\x00" + "\x00\x00\x00\x80" + "\x00\x00\x00\x40" + "\x00\x00\x00\x00")
	// hugeResponse is 18 bytes: an empty name, version 0 and nRows =
	// 0xFFFFFFFF with no row behind it, which allocated 240 GB of
	// predictions before reading the first row.
	hugeResponse = []byte("FMB1\x02\x00\x00\x00" + "\x00\x00" + "\x00\x00\x00\x00" + "\xff\xff\xff\xff")
)

// TestBinaryRequestRoundTrip is the codec property test: random batches
// of every shape survive encode → decode bit-exactly, including NaN,
// infinities and negative keys (the wire format is raw IEEE bits, so no
// value is unrepresentable).
func TestBinaryRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specials := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	var bufs predictBuffers
	for trial := 0; trial < 200; trial++ {
		nRows := 1 + rng.Intn(20)
		factW := rng.Intn(6)
		nFKs := rng.Intn(4)
		if factW == 0 && nFKs == 0 {
			factW = 1
		}
		rows := make([]Row, nRows)
		for i := range rows {
			rows[i].Fact = make([]float64, factW)
			for j := range rows[i].Fact {
				if rng.Intn(10) == 0 {
					rows[i].Fact[j] = specials[rng.Intn(len(specials))]
				} else {
					rows[i].Fact[j] = rng.NormFloat64()
				}
			}
			rows[i].FKs = make([]int64, nFKs)
			for j := range rows[i].FKs {
				rows[i].FKs[j] = rng.Int63() - rng.Int63()
			}
		}
		enc, err := AppendBinaryRequest(nil, rows)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		if err := decodeBinaryRequest(enc, &bufs); err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if len(bufs.rows) != nRows {
			t.Fatalf("trial %d: decoded %d rows, want %d", trial, len(bufs.rows), nRows)
		}
		for i := range rows {
			for j := range rows[i].Fact {
				if math.Float64bits(bufs.rows[i].Fact[j]) != math.Float64bits(rows[i].Fact[j]) {
					t.Fatalf("trial %d row %d fact %d: %v != %v", trial, i, j, bufs.rows[i].Fact[j], rows[i].Fact[j])
				}
			}
			for j := range rows[i].FKs {
				if bufs.rows[i].FKs[j] != rows[i].FKs[j] {
					t.Fatalf("trial %d row %d fk %d: %d != %d", trial, i, j, bufs.rows[i].FKs[j], rows[i].FKs[j])
				}
			}
		}
	}
}

// TestBinaryResponseRoundTrip round-trips responses across both model
// kinds, mixed success and error rows.
func TestBinaryResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		info := ModelInfo{Name: "m", Kind: KindGMM, Version: 1 + rng.Intn(100)}
		if rng.Intn(2) == 0 {
			info.Kind = KindNN
		}
		preds := make([]Prediction, rng.Intn(20))
		for i := range preds {
			switch rng.Intn(3) {
			case 0:
				preds[i] = Prediction{Code: "unknown_foreign_key", Err: "unknown foreign key 99"}
			case 1:
				preds[i] = Prediction{Output: rng.NormFloat64(), LogProb: rng.NormFloat64(), Cluster: rng.Intn(8)}
			default:
				preds[i] = Prediction{LogProb: -math.MaxFloat64, Cluster: 0}
			}
		}
		enc := appendBinaryResponse(nil, info, preds)
		got, gotPreds, err := DecodeBinaryResponse(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if got.Name != info.Name || got.Kind != info.Kind || got.Version != info.Version {
			t.Fatalf("trial %d: info %+v != %+v", trial, got, info)
		}
		if len(gotPreds) != len(preds) {
			t.Fatalf("trial %d: %d rows, want %d", trial, len(gotPreds), len(preds))
		}
		for i := range preds {
			w, g := &preds[i], &gotPreds[i]
			if w.Err != "" {
				if g.Err != w.Err || g.Code != w.Code {
					t.Fatalf("trial %d row %d: error (%q,%q) != (%q,%q)", trial, i, g.Code, g.Err, w.Code, w.Err)
				}
				continue
			}
			if info.Kind == KindNN {
				if math.Float64bits(g.Output) != math.Float64bits(w.Output) {
					t.Fatalf("trial %d row %d: output %v != %v", trial, i, g.Output, w.Output)
				}
			} else if math.Float64bits(g.LogProb) != math.Float64bits(w.LogProb) || g.Cluster != w.Cluster {
				t.Fatalf("trial %d row %d: (%v,%d) != (%v,%d)", trial, i, g.LogProb, g.Cluster, w.LogProb, w.Cluster)
			}
		}
	}
}

// FuzzDecodeBinaryRequest throws arbitrary bytes at the request decoder:
// it must reject or accept cleanly — never panic, never over-read — and
// anything it accepts must re-encode to the identical bytes.
func FuzzDecodeBinaryRequest(f *testing.F) {
	seed, _ := AppendBinaryRequest(nil, []Row{{Fact: []float64{1, 2}, FKs: []int64{3}}})
	f.Add(seed)
	f.Add([]byte(wireMagic))
	f.Add([]byte("FMB1\x01\x00\x00\x00\xff\xff\xff\xff\x01\x00\x00\x00\x01\x00\x00\x00"))
	f.Add([]byte{})
	f.Add(wrapRequest)
	f.Fuzz(func(t *testing.T, data []byte) {
		var bufs predictBuffers
		if err := decodeBinaryRequest(data, &bufs); err != nil {
			return
		}
		enc, err := AppendBinaryRequest(nil, bufs.rows)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		if string(enc) != string(data) {
			t.Fatalf("round-trip mismatch: %d bytes in, %d out", len(data), len(enc))
		}
	})
}

// FuzzDecodeBinaryResponse is the response-side decoder fuzz: no input
// may panic it, and accepted inputs round-trip.
func FuzzDecodeBinaryResponse(f *testing.F) {
	f.Add(appendBinaryResponse(nil, ModelInfo{Name: "m", Kind: KindGMM, Version: 1},
		[]Prediction{{LogProb: -1.5, Cluster: 2}, {Code: "x", Err: "y"}}))
	f.Add([]byte("FMB1\x02\x01\x00\x00"))
	f.Add(hugeResponse)
	f.Fuzz(func(t *testing.T, data []byte) {
		info, preds, err := DecodeBinaryResponse(data)
		if err != nil {
			return
		}
		enc := appendBinaryResponse(nil, info, preds)
		if string(enc) != string(data) {
			t.Fatalf("round-trip mismatch: %d bytes in, %d out", len(data), len(enc))
		}
	})
}

// TestDecodeBinaryRequestWrappedRowCount: a row count whose byte size
// wraps is an error, and no buffer is sized from it.
func TestDecodeBinaryRequestWrappedRowCount(t *testing.T) {
	if len(wrapRequest) != 20 {
		t.Fatalf("crafted request is %d bytes, want 20", len(wrapRequest))
	}
	var bufs predictBuffers
	if err := decodeBinaryRequest(wrapRequest, &bufs); err == nil {
		t.Fatal("a request of 2³¹ rows in 20 bytes was accepted")
	}
	if cap(bufs.rows)+cap(bufs.facts)+cap(bufs.fks) != 0 {
		t.Fatalf("rejected request grew the buffers to %d rows, %d features, %d keys",
			cap(bufs.rows), cap(bufs.facts), cap(bufs.fks))
	}
}

// TestDecodeBinaryResponseHugeRowCount: a row count the body cannot hold
// is an error, and nothing near its size is allocated.
func TestDecodeBinaryResponseHugeRowCount(t *testing.T) {
	if len(hugeResponse) != 18 {
		t.Fatalf("crafted response is %d bytes, want 18", len(hugeResponse))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, preds, err := DecodeBinaryResponse(hugeResponse)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("a response of 2³²−1 rows in 18 bytes was accepted with %d rows", len(preds))
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("rejecting the response allocated %d bytes", grew)
	}
}

// TestDecodeBinaryRequestZeroAlloc pins the binary predict path's decode
// at zero allocations once the pooled buffers are warm.
func TestDecodeBinaryRequestZeroAlloc(t *testing.T) {
	if RaceEnabled {
		t.Skip("the race runtime allocates where production builds do not; the pin runs in the non-race suite")
	}
	rows := make([]Row, 64)
	for i := range rows {
		rows[i] = Row{Fact: []float64{float64(i), 1, 2, 3, 4}, FKs: []int64{int64(i), 7}}
	}
	enc, err := AppendBinaryRequest(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	var bufs predictBuffers
	if err := decodeBinaryRequest(enc, &bufs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := decodeBinaryRequest(enc, &bufs); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm decodeBinaryRequest allocates %.1f objects per call, want 0", allocs)
	}
}
