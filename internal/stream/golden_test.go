package stream

import (
	"encoding/hex"
	"math"
	"testing"
)

// TestCodecGoldenBytes pins the exact bytes of every WAL record kind. Old
// WAL directories hold these bytes, so a codec change that moves one fails
// here before it fails a recovery. Each golden value must also decode and
// re-encode to itself.
func TestCodecGoldenBytes(t *testing.T) {
	batch := Batch{
		Dims: []DimUpdate{{Table: "items", RID: 7, FKs: []int64{3}, Features: []float64{1.5, math.NaN()}}},
		Facts: []FactRow{
			{SID: 42, FKs: []int64{7, -1}, Features: []float64{math.Inf(-1), 0.25}, Target: -2},
		},
	}
	batchRec, err := appendBatchRecord(nil, &batch)
	if err != nil {
		t.Fatal(err)
	}
	attachRec, err := appendAttachRecord(nil, walAttachGMM, "mix", []byte(`{"k":2}`))
	if err != nil {
		t.Fatal(err)
	}
	records := []struct {
		name string
		got  []byte
		want string
	}{
		{"batch", batchRec, "0101" +
			"01000000" + "0500" + "6974656d73" + "0700000000000000" +
			"0100" + "0300000000000000" +
			"0200" + "000000000000f83f" + "010000000000f87f" +
			"01000000" + "2a00000000000000" +
			"0200" + "0700000000000000" + "ffffffffffffffff" +
			"0200" + "000000000000f0ff" + "000000000000d03f" +
			"00000000000000c0"},
		{"attach", attachRec, "0103" + "01" + "0300" + "6d6978" + "07000000" + "7b226b223a327d"},
		{"refresh", appendRefreshRecord(nil), "0102"},
	}
	for _, r := range records {
		if got := hex.EncodeToString(r.got); got != r.want {
			t.Errorf("%s record:\n got %s\nwant %s", r.name, got, r.want)
			continue
		}
		rec, err := decodeWALRecord(r.got)
		if err != nil {
			t.Errorf("%s record: decode: %v", r.name, err)
			continue
		}
		if again, err := reencodeWALRecord(&rec); err != nil || string(again) != string(r.got) {
			t.Errorf("%s record: re-encodes to %x (%v)", r.name, again, err)
		}
	}
}

// reencodeWALRecord encodes a decoded record again, through the encoder of
// its op.
func reencodeWALRecord(rec *walRecord) ([]byte, error) {
	switch rec.op {
	case walOpBatch:
		return appendBatchRecord(nil, &rec.batch)
	case walOpAttach:
		return appendAttachRecord(nil, rec.kind, rec.name, rec.params)
	default:
		return appendRefreshRecord(nil), nil
	}
}
