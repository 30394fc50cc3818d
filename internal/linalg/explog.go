package linalg

import (
	"fmt"
	"math"
)

// This file holds the program's one exp and one log. Both are plain Go
// with every product rounded before it is added (float64(a*b) + c), so no
// target fuses a multiply-add and the bits they return are the same on
// every architecture — unlike math.Exp and math.Log, which have assembly on
// amd64, arm64 and s390x. scripts/nofma.sh checks the cross-compiled
// instructions of this file.
//
// ExpInto is table driven, after Tang (ACM TOMS 15(2), 1989): reduce
// x = k·ln2/N + r with N = 128 and |r| ≤ ln2/2N, then
// e^x = 2^(k/N)·e^r ≈ s·(1 + tail + p(r)), where s·(1 + tail) is the table's
// 2^((k mod N)/N) scaled by 2^⌊k/N⌋ and p(r) ≈ e^r − 1 is a degree-5
// polynomial. Its error is below 0.52 ulp where the result is normal and
// below 1 ulp where it is subnormal (TestExpIntoAccuracy, against a
// math/big reference). Log is the toolchain's own pure-Go log
// ($GOROOT/src/math/log.go, from FreeBSD's e_log.c), under 1 ulp.

const (
	expTableBits = 7
	expN         = 1 << expTableBits
	expInvLn2N   = 0x1.71547652b82fep0 * expN
	expNegLn2hiN = -0x1.62e42fefa0000p-8 // −ln2/N, high part: k·NegLn2hiN is exact
	expNegLn2loN = -0x1.cf79abc9e3b3ap-47
	expShift     = 0x1.8p52 // z + Shift rounds z to an integer held in the low bits
	expC2        = 0x1.ffffffffffdbdp-2
	expC3        = 0x1.555555555543cp-3
	expC4        = 0x1.55555cf172b91p-5
	expC5        = 0x1.1111167a4d017p-7

	// Exponent fields (the top 12 bits without the sign) bounding the
	// reduction's fast path: below 2⁻⁵⁴ e^x rounds to 1 + x, and from 512
	// on the scale's exponent may leave the normal range.
	expTopTiny = 0x3c9 // 2⁻⁵⁴
	expTopBig  = 0x408 // 512
	expTopHuge = 0x409 // 1024
)

// ExpInto sets dst[i] = e^x[i]. dst may alias x.
func ExpInto(dst, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("linalg: exp length mismatch %d vs %d", len(dst), len(x)))
	}
	for i, v := range x {
		top := math.Float64bits(v) >> 52 & 0x7ff
		large := top-expTopTiny >= expTopBig-expTopTiny // |x| < 2⁻⁵⁴ or |x| ≥ 512
		if large && (top < expTopTiny || top >= expTopHuge) {
			dst[i] = expEdge(v)
			continue
		}
		kd := float64(expInvLn2N*v) + expShift
		ki := math.Float64bits(kd)
		kd -= expShift
		r := v + float64(kd*expNegLn2hiN) + float64(kd*expNegLn2loN)
		idx := 2 * (ki % expN)
		tail := math.Float64frombits(expTable[idx])
		sbits := expTable[idx+1] + ki<<(52-expTableBits) // 2^(k/N) ≈ scale·(1 + tail)
		r2 := float64(r * r)
		tmp := tail + r + float64(r2*(expC2+float64(r*expC3))) + float64(float64(r2*r2)*(expC4+float64(r*expC5)))
		if large {
			dst[i] = expOutOfRange(tmp, sbits, ki)
			continue
		}
		scale := math.Float64frombits(sbits)
		dst[i] = scale + float64(scale*tmp)
	}
}

// expEdge is e^x for |x| < 2⁻⁵⁴, |x| ≥ 1024, NaN and ±Inf.
func expEdge(x float64) float64 {
	switch {
	case math.Float64bits(x)>>52&0x7ff < expTopTiny:
		return 1 + x
	case math.IsInf(x, -1):
		return 0
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return 0 // underflow
	default:
		return math.Inf(1) // overflow
	}
}

// expOutOfRange finishes e^x ≈ scale·(1 + tmp) for 512 ≤ |x| < 1024, where
// the scale's exponent, sbits, may have left the normal range; ki holds k
// in its low bits.
func expOutOfRange(tmp float64, sbits, ki uint64) float64 {
	if ki&0x80000000 == 0 {
		// k > 0: the exponent may have overflowed by up to 460.
		scale := math.Float64frombits(sbits - 1009<<52)
		return 0x1p1009 * (scale + float64(scale*tmp))
	}
	// k < 0: round y to 53 bits before scaling it into the subnormal
	// range, or the result is rounded twice.
	scale := math.Float64frombits(sbits + 1022<<52)
	y := scale + float64(scale*tmp)
	if y < 1 {
		lo := scale - y + float64(scale*tmp)
		hi := 1 + y
		lo = 1 - hi + y + lo
		y = (hi + lo) - 1
	}
	return 0x1p-1022 * y
}

// Log returns the natural logarithm of x: NaN for x < 0 or NaN, −Inf for
// ±0, +Inf for +Inf.
func Log(x float64) float64 {
	const (
		ln2Hi = 6.93147180369123816490e-01 // 3fe62e42 fee00000
		ln2Lo = 1.90821492927058770002e-10 // 3dea39ef 35793c76
		l1    = 6.666666666666735130e-01   // 3fe55555 55555593
		l2    = 3.999999999940941908e-01   // 3fd99999 9997fa04
		l3    = 2.857142874366239149e-01   // 3fd24924 94229359
		l4    = 2.222219843214978396e-01   // 3fcc71c5 1d8e78af
		l5    = 1.818357216161805012e-01   // 3fc74664 96cb03de
		l6    = 1.531383769920937332e-01   // 3fc39a09 d078c69f
		l7    = 1.479819860511658591e-01   // 3fc2f112 df3e5244
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case x < 0:
		return math.NaN()
	case x == 0:
		return math.Inf(-1)
	}
	// x = 2^k·(1 + f), √2/2 ≤ 1 + f < √2.
	f1, ki := math.Frexp(x)
	if f1 < math.Sqrt2/2 {
		f1 *= 2
		ki--
	}
	f := f1 - 1
	k := float64(ki)

	// log(1 + f) = f − f²/2 + s·(f²/2 + R), s = f/(2 + f).
	s := f / (2 + f)
	s2 := float64(s * s)
	s4 := float64(s2 * s2)
	t1 := float64(s2 * (l1 + float64(s4*(l3+float64(s4*(l5+float64(s4*l7)))))))
	t2 := float64(s4 * (l2 + float64(s4*(l4+float64(s4*l6)))))
	R := t1 + t2
	hfsq := float64(float64(0.5*f) * f)
	return float64(k*ln2Hi) - ((hfsq - (float64(s*(hfsq+R)) + float64(k*ln2Lo))) - f)
}
