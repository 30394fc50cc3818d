// Package codec is the one little-endian binary codec the durable and wire
// formats are written in: the stream's WAL records, the FMB1 predict wire
// and the checkpoint's statistics slabs. Floats travel as their IEEE-754
// bits, so every value — NaN and the infinities included — comes back bit
// for bit.
//
// Encoding appends to a caller-owned buffer (Append*). Decoding goes
// through a Reader, a bounds-checked cursor whose first failure sticks and
// names the field and byte offset; later reads return zero values, so a
// decoder reads a whole message and checks the error once, at Done.
//
// The Count rule: a decoder never sizes a slice from a length it read out
// of its input. It passes that length through Reader.Count with the least
// number of bytes one element takes on the wire, and Count refuses any
// length whose elements cannot fit in the bytes that remain. A hostile or
// corrupt header therefore costs at most an allocation proportional to the
// message that carried it.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendU16 appends v in two bytes.
func AppendU16(dst []byte, v uint16) []byte { return binary.LittleEndian.AppendUint16(dst, v) }

// AppendU32 appends v in four bytes.
func AppendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }

// AppendI64 appends v in eight bytes.
func AppendI64(dst []byte, v int64) []byte { return binary.LittleEndian.AppendUint64(dst, uint64(v)) }

// AppendF64 appends v's IEEE-754 bits in eight bytes.
func AppendF64(dst []byte, v float64) []byte { return AppendI64(dst, int64(math.Float64bits(v))) }

// AppendStr16 appends s behind a two-byte length. The caller bounds len(s)
// to math.MaxUint16.
func AppendStr16(dst []byte, s string) []byte { return append(AppendU16(dst, uint16(len(s))), s...) }

// AppendI64s appends every value of vs, with no length in front.
func AppendI64s(dst []byte, vs []int64) []byte {
	for _, v := range vs {
		dst = AppendI64(dst, v)
	}
	return dst
}

// AppendF64s appends every value of vs, with no length in front.
func AppendF64s(dst []byte, vs []float64) []byte {
	for _, v := range vs {
		dst = AppendF64(dst, v)
	}
	return dst
}

// Reader is a bounds-checked cursor over one encoded message. Each read
// names the field it reads, for the error.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader at the start of p.
func NewReader(p []byte) Reader { return Reader{buf: p} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first failure, or an error when bytes remain unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.err = fmt.Errorf("%d trailing bytes at offset %d", len(r.buf)-r.off, r.off)
	}
	return r.err
}

// take consumes the next n bytes, or records a failure and returns nil.
func (r *Reader) take(what string, n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf)-r.off {
		r.err = fmt.Errorf("truncated reading %s: %d bytes at offset %d, %d remain", what, n, r.off, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// Count returns n when n elements of at least elemBytes > 0 bytes each fit
// in the bytes that remain; otherwise it fails and returns 0. It is the
// only way a decoder sizes a slice from a length it read.
func (r *Reader) Count(what string, n, elemBytes int) int {
	if r.err != nil {
		return 0
	}
	if n < 0 || n > (len(r.buf)-r.off)/elemBytes {
		r.err = fmt.Errorf("%s count %d of %d-byte elements exceeds the %d bytes remaining at offset %d",
			what, n, elemBytes, len(r.buf)-r.off, r.off)
		return 0
	}
	return n
}

var zeros [8]byte

// word consumes an n ≤ 8 byte field; after a failure it reads zeros.
func (r *Reader) word(what string, n int) []byte {
	if b := r.take(what, n); b != nil {
		return b
	}
	return zeros[:n]
}

// U8 reads one byte.
func (r *Reader) U8(what string) byte { return r.word(what, 1)[0] }

// U16 reads a two-byte unsigned integer.
func (r *Reader) U16(what string) uint16 { return binary.LittleEndian.Uint16(r.word(what, 2)) }

// U32 reads a four-byte unsigned integer.
func (r *Reader) U32(what string) uint32 { return binary.LittleEndian.Uint32(r.word(what, 4)) }

// I64 reads an eight-byte signed integer.
func (r *Reader) I64(what string) int64 { return int64(binary.LittleEndian.Uint64(r.word(what, 8))) }

// F64 reads an eight-byte IEEE-754 float.
func (r *Reader) F64(what string) float64 { return math.Float64frombits(uint64(r.I64(what))) }

// Bytes reads the next n bytes. The result aliases the message.
func (r *Reader) Bytes(what string, n int) []byte { return r.take(what, n) }

// Str16 reads a string behind a two-byte length (AppendStr16's layout).
func (r *Reader) Str16(what string) string { return string(r.take(what, int(r.U16(what)))) }

// I64s fills dst with the next len(dst) eight-byte signed integers.
func (r *Reader) I64s(what string, dst []int64) {
	if b := r.take(what, 8*len(dst)); b != nil {
		for i := range dst {
			dst[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}

// F64s fills dst with the next len(dst) eight-byte IEEE-754 floats.
func (r *Reader) F64s(what string, dst []float64) {
	if b := r.take(what, 8*len(dst)); b != nil {
		for i := range dst {
			dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
		}
	}
}
