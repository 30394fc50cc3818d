package stream

import (
	"encoding/binary"
	"fmt"
	"math"
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
// The format is little-endian binary (floats as Float64bits, so every
// value — including NaN and infinities — round-trips exactly):
//
//	[u8 version][u8 op][op-specific body]
//
// walOpBatch body: dims first, then facts, mirroring apply order:
//
//	u32 ndims  { u16 len|table  i64 rid  u16 nfks i64…  u16 nfeat f64… }…
//	u32 nfacts { i64 sid  u16 nfks i64…  u16 nfeat f64…  f64 target }…
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

// walBatchLimit bounds the decoded element counts so a corrupt-but-
// CRC-valid record cannot drive huge allocations.
const walBatchLimit = 16 << 20

func appendI64(dst []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(dst, uint64(v))
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendI64s(dst []byte, vs []int64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(vs)))
	for _, v := range vs {
		dst = appendI64(dst, v)
	}
	return dst
}

func appendF64s(dst []byte, vs []float64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(vs)))
	for _, v := range vs {
		dst = appendF64(dst, v)
	}
	return dst
}

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
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Dims)))
	for _, du := range b.Dims {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(du.Table)))
		dst = append(dst, du.Table...)
		dst = appendI64(dst, du.RID)
		dst = appendI64s(dst, du.FKs)
		dst = appendF64s(dst, du.Features)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Facts)))
	for i := range b.Facts {
		fr := &b.Facts[i]
		dst = appendI64(dst, fr.SID)
		dst = appendI64s(dst, fr.FKs)
		dst = appendF64s(dst, fr.Features)
		dst = appendF64(dst, fr.Target)
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
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(name)))
	dst = append(dst, name...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(params)))
	dst = append(dst, params...)
	return dst, nil
}

// walDecoder is a bounds-checked cursor over one record payload.
type walDecoder struct {
	p   []byte
	off int
	err error
}

func (d *walDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("stream: truncated WAL record reading %s at offset %d", what, d.off)
	}
}

func (d *walDecoder) u8(what string) byte {
	if d.err != nil || d.off+1 > len(d.p) {
		d.fail(what)
		return 0
	}
	v := d.p[d.off]
	d.off++
	return v
}

func (d *walDecoder) u16(what string) int {
	if d.err != nil || d.off+2 > len(d.p) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint16(d.p[d.off:])
	d.off += 2
	return int(v)
}

func (d *walDecoder) u32(what string) int {
	if d.err != nil || d.off+4 > len(d.p) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.p[d.off:])
	d.off += 4
	if v > walBatchLimit {
		d.err = fmt.Errorf("stream: WAL record %s count %d exceeds limit", what, v)
		return 0
	}
	return int(v)
}

func (d *walDecoder) i64(what string) int64 {
	if d.err != nil || d.off+8 > len(d.p) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.p[d.off:])
	d.off += 8
	return int64(v)
}

func (d *walDecoder) f64(what string) float64 {
	return math.Float64frombits(uint64(d.i64(what)))
}

func (d *walDecoder) str(what string) string {
	n := d.u16(what)
	if d.err != nil || d.off+n > len(d.p) {
		d.fail(what)
		return ""
	}
	s := string(d.p[d.off : d.off+n])
	d.off += n
	return s
}

func (d *walDecoder) i64s(what string) []int64 {
	n := d.u16(what)
	if d.err != nil {
		return nil
	}
	vs := make([]int64, n)
	for i := range vs {
		vs[i] = d.i64(what)
	}
	return vs
}

func (d *walDecoder) f64s(what string) []float64 {
	n := d.u16(what)
	if d.err != nil {
		return nil
	}
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = d.f64(what)
	}
	return vs
}

// walRecord is one decoded WAL record.
type walRecord struct {
	op     byte
	batch  Batch  // walOpBatch
	kind   byte   // walOpAttach: walAttachGMM/walAttachNN
	name   string // walOpAttach: model name
	params []byte // walOpAttach: serialized model parameters
}

// decodeWALRecord parses one record payload. The CRC layer below
// already rejected bit rot, so a decode failure here means a version
// skew or an encoder bug — both hard errors for recovery to surface.
func decodeWALRecord(p []byte) (walRecord, error) {
	var rec walRecord
	d := &walDecoder{p: p}
	if v := d.u8("version"); d.err == nil && v != walRecordVersion {
		return rec, fmt.Errorf("stream: unsupported WAL record version %d", v)
	}
	rec.op = d.u8("op")
	switch {
	case d.err != nil:
	case rec.op == walOpRefresh:
		// no body
	case rec.op == walOpAttach:
		rec.kind = d.u8("attach kind")
		rec.name = d.str("attach name")
		if n := d.u32("attach params"); d.err == nil {
			if d.off+n > len(p) {
				d.fail("attach params")
			} else {
				rec.params = p[d.off : d.off+n]
				d.off += n
			}
		}
	case rec.op == walOpBatch:
		b := &rec.batch
		ndims := d.u32("dim count")
		for i := 0; i < ndims && d.err == nil; i++ {
			b.Dims = append(b.Dims, DimUpdate{
				Table:    d.str("dim table"),
				RID:      d.i64("dim rid"),
				FKs:      d.i64s("dim fks"),
				Features: d.f64s("dim features"),
			})
		}
		nfacts := d.u32("fact count")
		for i := 0; i < nfacts && d.err == nil; i++ {
			b.Facts = append(b.Facts, FactRow{
				SID:      d.i64("fact sid"),
				FKs:      d.i64s("fact fks"),
				Features: d.f64s("fact features"),
				Target:   d.f64("fact target"),
			})
		}
	default:
		return rec, fmt.Errorf("stream: unknown WAL record op %d", rec.op)
	}
	if d.err == nil && d.off != len(p) {
		d.err = fmt.Errorf("stream: %d trailing bytes after WAL record (op %d)", len(p)-d.off, rec.op)
	}
	return rec, d.err
}
