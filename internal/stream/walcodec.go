package stream

import (
	"fmt"
	"math"

	"factorml/internal/codec"
)

// WAL record encoding. Every acked mutation of the stream is one
// record: a validated change batch (walOpBatch), an explicit refresh
// (walOpRefresh), or a model attach (walOpAttach — replay re-attaches
// the named model from the registry at the same log position, so the
// base statistics it rebuilds see exactly the rows the original attach
// saw). Automatic refreshes are deliberately NOT logged — they re-fire
// deterministically when the triggering batch is replayed, so logging
// them would double-refresh on recovery.
//
// The format is internal/codec's little-endian binary (floats as their
// IEEE-754 bits, so every value — including NaN and infinities —
// round-trips exactly):
//
//	[u8 version][u8 op][op-specific body]
//
// walOpBatch body: dims first, then facts, mirroring apply order:
//
//	u32 ndims  { u16 len|table  i64 rid  u16 nfks i64…  u16 nfeat f64… }…
//	u32 nfacts { i64 sid  u16 nfks i64…  u16 nfeat f64…  f64 target }…
//
// walOpAttach body: u8 kind, u16 len|name, u32 len|params.
//
// The encoder appends into a caller-owned buffer (the stream reuses
// one under its mutex), so WAL-on ingest adds no per-batch garbage
// beyond the first growth to the high-water batch size.

const (
	walRecordVersion = 1

	walOpBatch   = 1
	walOpRefresh = 2
	walOpAttach  = 3
)

// walOpAttach model kinds.
const (
	walAttachGMM = 1
	walAttachNN  = 2
)

// walBatchLimit bounds the model parameters an attach record may carry.
const walBatchLimit = 16 << 20

// The fewest bytes one dimension update and one fact row take in a batch
// record: every field present, every run empty.
const (
	minDimBytes  = 2 + 8 + 2 + 2
	minFactBytes = 8 + 2 + 2 + 8
)

// appendBatchRecord encodes b as a walOpBatch record, appending to dst.
func appendBatchRecord(dst []byte, b *Batch) ([]byte, error) {
	for _, du := range b.Dims {
		if len(du.Table) > math.MaxUint16 || len(du.FKs) > math.MaxUint16 || len(du.Features) > math.MaxUint16 {
			return dst, fmt.Errorf("stream: dim update of table %q too wide to log", du.Table)
		}
	}
	for i := range b.Facts {
		fr := &b.Facts[i]
		if len(fr.FKs) > math.MaxUint16 || len(fr.Features) > math.MaxUint16 {
			return dst, fmt.Errorf("stream: fact row (sid %d) too wide to log", fr.SID)
		}
	}
	dst = append(dst, walRecordVersion, walOpBatch)
	dst = codec.AppendU32(dst, uint32(len(b.Dims)))
	for _, du := range b.Dims {
		dst = codec.AppendStr16(dst, du.Table)
		dst = codec.AppendI64(dst, du.RID)
		dst = codec.AppendI64s(codec.AppendU16(dst, uint16(len(du.FKs))), du.FKs)
		dst = codec.AppendF64s(codec.AppendU16(dst, uint16(len(du.Features))), du.Features)
	}
	dst = codec.AppendU32(dst, uint32(len(b.Facts)))
	for i := range b.Facts {
		fr := &b.Facts[i]
		dst = codec.AppendI64(dst, fr.SID)
		dst = codec.AppendI64s(codec.AppendU16(dst, uint16(len(fr.FKs))), fr.FKs)
		dst = codec.AppendF64s(codec.AppendU16(dst, uint16(len(fr.Features))), fr.Features)
		dst = codec.AppendF64(dst, fr.Target)
	}
	return dst, nil
}

// appendRefreshRecord encodes an explicit-refresh record.
func appendRefreshRecord(dst []byte) []byte {
	return append(dst, walRecordVersion, walOpRefresh)
}

// appendAttachRecord encodes a walOpAttach record. The record carries
// the attached model's serialized parameters, not a registry reference:
// the instance handed to Attach need not match any saved copy, and
// replay must rebuild statistics under exactly the parameters the
// original attach used.
func appendAttachRecord(dst []byte, kind byte, name string, params []byte) ([]byte, error) {
	if len(name) > math.MaxUint16 {
		return dst, fmt.Errorf("stream: model name of %d bytes too long to log", len(name))
	}
	if len(params) > walBatchLimit {
		return dst, fmt.Errorf("stream: model %q parameters of %d bytes too large to log", name, len(params))
	}
	dst = append(dst, walRecordVersion, walOpAttach, kind)
	dst = codec.AppendStr16(dst, name)
	dst = codec.AppendU32(dst, uint32(len(params)))
	return append(dst, params...), nil
}

// walRecord is one decoded WAL record.
type walRecord struct {
	op     byte
	batch  Batch  // walOpBatch
	kind   byte   // walOpAttach: walAttachGMM/walAttachNN
	name   string // walOpAttach: model name
	params []byte // walOpAttach: serialized model parameters
}

// readI64s and readF64s read a u16-counted run, the batch body's layout.
func readI64s(r *codec.Reader, what string) []int64 {
	vs := make([]int64, r.Count(what, int(r.U16(what)), 8))
	r.I64s(what, vs)
	return vs
}

func readF64s(r *codec.Reader, what string) []float64 {
	vs := make([]float64, r.Count(what, int(r.U16(what)), 8))
	r.F64s(what, vs)
	return vs
}

// decodeWALRecord parses one record payload. The CRC layer below
// already rejected bit rot, so a decode failure here means a version
// skew or an encoder bug — both hard errors for recovery to surface.
func decodeWALRecord(p []byte) (walRecord, error) {
	var rec walRecord
	r := codec.NewReader(p)
	if v := r.U8("version"); r.Err() == nil && v != walRecordVersion {
		return rec, fmt.Errorf("stream: unsupported WAL record version %d", v)
	}
	rec.op = r.U8("op")
	switch {
	case r.Err() != nil:
	case rec.op == walOpRefresh:
		// no body
	case rec.op == walOpAttach:
		rec.kind = r.U8("attach kind")
		rec.name = r.Str16("attach name")
		rec.params = r.Bytes("attach params", int(r.U32("attach params length")))
	case rec.op == walOpBatch:
		b := &rec.batch
		b.Dims = make([]DimUpdate, r.Count("dim", int(r.U32("dim count")), minDimBytes))
		for i := range b.Dims {
			du := &b.Dims[i]
			du.Table = r.Str16("dim table")
			du.RID = r.I64("dim rid")
			du.FKs = readI64s(&r, "dim fks")
			du.Features = readF64s(&r, "dim features")
		}
		b.Facts = make([]FactRow, r.Count("fact", int(r.U32("fact count")), minFactBytes))
		for i := range b.Facts {
			fr := &b.Facts[i]
			fr.SID = r.I64("fact sid")
			fr.FKs = readI64s(&r, "fact fks")
			fr.Features = readF64s(&r, "fact features")
			fr.Target = r.F64("fact target")
		}
	default:
		return rec, fmt.Errorf("stream: unknown WAL record op %d", rec.op)
	}
	if err := r.Done(); err != nil {
		return rec, fmt.Errorf("stream: WAL record (op %d): %w", rec.op, err)
	}
	return rec, nil
}
