package codec

import (
	"math"
	"strings"
	"testing"
)

// TestRoundTrip writes one value of every kind and reads it back bit for
// bit, NaN, −0 and the infinities included.
func TestRoundTrip(t *testing.T) {
	floats := []float64{math.NaN(), math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64}
	ints := []int64{math.MinInt64, -1, 0, math.MaxInt64}
	var b []byte
	b = append(b, 0xab)
	b = AppendU16(b, 0xbeef)
	b = AppendU32(b, 0xdeadbeef)
	b = AppendI64(b, -42)
	b = AppendF64(b, -0.5)
	b = AppendStr16(b, "name")
	b = AppendI64s(b, ints)
	b = AppendF64s(b, floats)
	b = append(b, "raw"...)

	r := NewReader(b)
	if v := r.U8("u8"); v != 0xab {
		t.Errorf("U8 = %#x", v)
	}
	if v := r.U16("u16"); v != 0xbeef {
		t.Errorf("U16 = %#x", v)
	}
	if v := r.U32("u32"); v != 0xdeadbeef {
		t.Errorf("U32 = %#x", v)
	}
	if v := r.I64("i64"); v != -42 {
		t.Errorf("I64 = %d", v)
	}
	if v := r.F64("f64"); v != -0.5 {
		t.Errorf("F64 = %v", v)
	}
	if v := r.Str16("str"); v != "name" {
		t.Errorf("Str16 = %q", v)
	}
	gotInts := make([]int64, r.Count("ints", len(ints), 8))
	r.I64s("ints", gotInts)
	gotFloats := make([]float64, r.Count("floats", len(floats), 8))
	r.F64s("floats", gotFloats)
	if v := r.Bytes("raw", 3); string(v) != "raw" {
		t.Errorf("Bytes = %q", v)
	}
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for i := range ints {
		if gotInts[i] != ints[i] {
			t.Errorf("I64s[%d] = %d, want %d", i, gotInts[i], ints[i])
		}
	}
	for i := range floats {
		if math.Float64bits(gotFloats[i]) != math.Float64bits(floats[i]) {
			t.Errorf("F64s[%d] = %v, want %v", i, gotFloats[i], floats[i])
		}
	}
}

// TestFirstFailureSticks: a short read names its field and offset, and
// every later read returns a zero value without replacing that error.
func TestFirstFailureSticks(t *testing.T) {
	r := NewReader(AppendU16(nil, 7))
	if v := r.U16("first"); v != 7 {
		t.Fatalf("U16 = %d", v)
	}
	if v := r.U32("second"); v != 0 {
		t.Errorf("failed U32 = %d, want 0", v)
	}
	if r.U8("third") != 0 || r.U16("third") != 0 || r.I64("third") != 0 || r.F64("third") != 0 ||
		r.Str16("third") != "" || r.Bytes("third", 0) != nil || r.Count("third", 0, 1) != 0 {
		t.Error("a read after the failure returned a value")
	}
	vs := []int64{5}
	r.I64s("third", vs)
	fs := []float64{5}
	r.F64s("third", fs)
	if vs[0] != 5 || fs[0] != 5 {
		t.Error("a run read after the failure wrote into its destination")
	}
	err := r.Done()
	if err == nil || !strings.Contains(err.Error(), "second") || !strings.Contains(err.Error(), "offset 2") {
		t.Fatalf("err = %v, want the failure at field \"second\", offset 2", err)
	}
	if r.Err() != err {
		t.Errorf("Err() = %v, Done() = %v", r.Err(), err)
	}
}

// TestCountRule: Count admits a count whose elements fit in the bytes that
// remain and refuses one that does not, negative counts included, without
// the multiplication that could wrap.
func TestCountRule(t *testing.T) {
	cases := []struct {
		n, elem int
		ok      bool
	}{
		{0, 8, true},
		{2, 8, true},
		{3, 8, false},
		{16, 1, true},
		{17, 1, false},
		{-1, 8, false},
		{1 << 62, 1 << 33, false},
	}
	for _, c := range cases {
		r := NewReader(make([]byte, 16))
		got := r.Count("elems", c.n, c.elem)
		if c.ok != (r.Err() == nil) || (c.ok && got != c.n) || (!c.ok && got != 0) {
			t.Errorf("Count(%d, %d) over 16 bytes = %d, err %v; want ok=%v", c.n, c.elem, got, r.Err(), c.ok)
		}
	}
	r := NewReader(make([]byte, 4))
	r.Count("rows", 1, 8)
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "rows count 1") {
		t.Errorf("err = %v, want one naming the rows count", err)
	}
}

// TestDoneRejectsTrailingBytes: a message read short of its end is an
// error that says how many bytes were left.
func TestDoneRejectsTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.U8("head")
	if err := r.Done(); err == nil || !strings.Contains(err.Error(), "2 trailing bytes at offset 1") {
		t.Fatalf("err = %v, want 2 trailing bytes at offset 1", err)
	}
}
