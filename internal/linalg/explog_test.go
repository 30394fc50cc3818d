package linalg

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

// The references below compute e^x and ln x in math/big at refPrec bits,
// far past float64's 53, so the distance of a float64 result from them is
// its error to within a negligible fraction of an ulp.
const refPrec = 320

func bigF(v float64) *big.Float { return new(big.Float).SetPrec(refPrec).SetFloat64(v) }

// bigLn2 is ln 2 = 2·atanh(1/3) = 2·Σ 3^−(2k+1)/(2k+1).
var bigLn2 = func() *big.Float {
	third := new(big.Float).SetPrec(refPrec).Quo(bigF(1), bigF(3))
	return bigAtanhSeries(third, new(big.Float).SetPrec(refPrec).Mul(third, third))
}()

// bigAtanhSeries returns 2·atanh(s) = 2·Σ s^(2k+1)/(2k+1), s2 = s², for |s| ≤ 1/3.
func bigAtanhSeries(s, s2 *big.Float) *big.Float {
	sum := new(big.Float).SetPrec(refPrec)
	term := new(big.Float).SetPrec(refPrec).Set(s)
	t := new(big.Float).SetPrec(refPrec)
	for k := 0; term.Sign() != 0 && term.MantExp(nil)-sum.MantExp(nil) > -refPrec-8; k++ {
		sum.Add(sum, t.Quo(term, bigF(float64(2*k+1))))
		term.Mul(term, s2)
	}
	return sum.Mul(sum, bigF(2))
}

// bigExp returns e^x: x = k·ln2 + r, then e^(r/2¹⁰) by its Taylor series,
// squared ten times, times 2^k.
func bigExp(x *big.Float) *big.Float {
	kf, _ := new(big.Float).Quo(x, bigLn2).Float64()
	k := math.Round(kf)
	r := new(big.Float).SetPrec(refPrec).Mul(bigF(k), bigLn2)
	r.Sub(x, r)
	r.SetMantExp(r, -10)
	sum, term := bigF(1), bigF(1)
	for n := 1; term.Sign() != 0 && term.MantExp(nil) > -refPrec-8; n++ {
		term.Mul(term, r)
		term.Quo(term, bigF(float64(n)))
		sum.Add(sum, term)
	}
	for i := 0; i < 10; i++ {
		sum.Mul(sum, sum)
	}
	return sum.SetMantExp(sum, int(k))
}

// bigLog returns ln x for a positive finite x: x = 2^e·m with √2/2 ≤ m < √2,
// ln m = 2·atanh((m−1)/(m+1)).
func bigLog(x float64) *big.Float {
	m, e := math.Frexp(x)
	if m < math.Sqrt2/2 {
		m, e = 2*m, e-1
	}
	s := new(big.Float).SetPrec(refPrec).Quo(new(big.Float).Sub(bigF(m), bigF(1)), new(big.Float).Add(bigF(m), bigF(1)))
	ln := bigAtanhSeries(s, new(big.Float).SetPrec(refPrec).Mul(s, s))
	return ln.Add(ln, new(big.Float).SetPrec(refPrec).Mul(bigF(float64(e)), bigLn2))
}

// ulpErr returns |got − ref| in units of the last place of ref rounded to
// a float64 (subnormal results have the fixed ulp 2⁻¹⁰⁷⁴).
func ulpErr(got float64, ref *big.Float) float64 {
	exp := ref.MantExp(nil) - 53 // ref = mant·2^MantExp, mant ∈ [0.5, 1)
	if exp < -1074 {
		exp = -1074
	}
	d := new(big.Float).SetPrec(refPrec).Sub(bigF(got), ref)
	e, _ := d.Abs(d).SetMantExp(d, -exp).Float64()
	return e
}

func exp1(x float64) float64 {
	out := []float64{x}
	ExpInto(out, out)
	return out[0]
}

// TestExpIntoAccuracy measures ExpInto against the math/big reference on a
// seeded sample: the sigmoid's and the mixtures' working range densely,
// the whole normal range, and the range whose results are subnormal.
func TestExpIntoAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	uniform := func(lo, hi float64) float64 { return lo + (hi-lo)*rng.Float64() }
	var worstNormal, worstSub, argNormal, argSub float64
	for i := 0; i < 20000; i++ {
		var x float64
		switch i % 4 {
		case 0, 1:
			x = uniform(-40, 40)
		case 2:
			x = uniform(-708, 709.78)
		default:
			x = uniform(-744.4, -708.4) // e^x subnormal
		}
		got := exp1(x)
		ref := bigExp(bigF(x))
		e := ulpErr(got, ref)
		if r, _ := ref.Float64(); r >= 0x1p-1022 {
			if e > worstNormal {
				worstNormal, argNormal = e, x
			}
		} else if e > worstSub {
			worstSub, argSub = e, x
		}
	}
	t.Logf("max error: %.4f ulp (normal, at x=%v), %.4f ulp (subnormal, at x=%v)", worstNormal, argNormal, worstSub, argSub)
	if worstNormal > 0.52 {
		t.Errorf("exp error %.4f ulp at x=%v, want ≤ 0.52 where the result is normal", worstNormal, argNormal)
	}
	if worstSub > 1 {
		t.Errorf("exp error %.4f ulp at x=%v, want ≤ 1 where the result is subnormal", worstSub, argSub)
	}
}

// TestLogAccuracy measures Log against the math/big reference on a seeded
// sample spread over every binade, subnormals included, and near 1.
func TestLogAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	worst, arg := 0.0, 0.0
	for i := 0; i < 20000; i++ {
		var x float64
		switch i % 4 {
		case 0:
			x = math.Float64frombits(1 + uint64(rng.Int63n(0x7fefffffffffffff))) // any positive finite
		case 1:
			x = 1 + (rng.Float64()-0.5)*0x1p-10
		default:
			x = math.Ldexp(0.5+rng.Float64(), rng.Intn(80)-40)
		}
		if e := ulpErr(Log(x), bigLog(x)); e > worst {
			worst, arg = e, x
		}
	}
	t.Logf("max error: %.4f ulp at x=%v", worst, arg)
	if worst > 1 {
		t.Errorf("log error %.4f ulp at x=%v, want ≤ 1", worst, arg)
	}
}

// TestExpLogSpecialValues checks the special cases ExpInto and Log handle
// without a fallback, bit for bit, and the edges of the subnormal and
// overflow ranges against the math/big reference.
func TestExpLogSpecialValues(t *testing.T) {
	same := func(got, want float64) bool {
		return got == want && math.Signbit(got) == math.Signbit(want) || math.IsNaN(got) && math.IsNaN(want)
	}
	for _, c := range []struct{ x, want float64 }{
		{math.NaN(), math.NaN()},
		{math.Inf(1), math.Inf(1)},
		{math.Inf(-1), 0},
		{0, 1},
		{math.Copysign(0, -1), 1},
		{0x1p-60, 1}, // |x| < 2⁻⁵⁴: 1 + x
		{-0x1p-60, 1},
		{0x1p-1074, 1},
		{710, math.Inf(1)}, // overflow
		{1000, math.Inf(1)},
		{1e4, math.Inf(1)},
		{math.MaxFloat64, math.Inf(1)},
		{-746, 0}, // underflow
		{-1000, 0},
		{-1e4, 0},
		{-math.MaxFloat64, 0},
	} {
		if got := exp1(c.x); !same(got, c.want) {
			t.Errorf("ExpInto(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	// Results near the largest finite, across the subnormal range down to
	// the smallest subnormal, and either side of the fast path's bounds.
	for _, x := range []float64{709.78, 709.7827128933839, 512, -512, 511.99, -511.99,
		-708.39, -708.4, -709.08956571282, -720, -730.5, -740, -744, -744.44, 0x1p-54, -0x1p-54, 0x1.0000000000001p-54} {
		got := exp1(x)
		ref := bigExp(bigF(x))
		bound := 0.52
		if r, _ := ref.Float64(); r < 0x1p-1022 {
			bound = 1
		}
		if e := ulpErr(got, ref); e > bound || math.IsInf(got, 0) || got == 0 {
			t.Errorf("ExpInto(%v) = %v, %.3f ulp from e^x, want ≤ %v", x, got, e, bound)
		}
	}

	for _, c := range []struct{ x, want float64 }{
		{math.NaN(), math.NaN()},
		{math.Inf(1), math.Inf(1)},
		{-1, math.NaN()},
		{-0x1p-1074, math.NaN()},
		{math.Inf(-1), math.NaN()},
		{0, math.Inf(-1)},
		{math.Copysign(0, -1), math.Inf(-1)},
		{1, 0},
		{2, math.Ln2},
	} {
		if got := Log(c.x); !same(got, c.want) {
			t.Errorf("Log(%v) = %v, want %v", c.x, got, c.want)
		}
	}
	for _, x := range []float64{0x1p-1074, 0x1p-1023, 0x1.fffffffffffffp-1023, math.SmallestNonzeroFloat64 * 3,
		math.MaxFloat64, math.E, 1 - 0x1p-53, 1 + 0x1p-52, math.Sqrt2 / 2, math.Sqrt2} {
		if e := ulpErr(Log(x), bigLog(x)); e > 1 {
			t.Errorf("Log(%v) = %v, %.3f ulp from ln x, want ≤ 1", x, Log(x), e)
		}
	}
}

// TestExpTableMatchesBigFloat regenerates the committed table from math/big:
// for i = 0 … 127, s_i = 2^(i/128) rounded to a float64, tail_i =
// 2^(i/128)/s_i − 1 rounded, and the words bits(tail_i), bits(s_i) − i<<45.
// On a mismatch it prints the table to commit.
func TestExpTableMatchesBigFloat(t *testing.T) {
	var want [2 * expN]uint64
	var src strings.Builder
	for i := 0; i < expN; i++ {
		x := new(big.Float).SetPrec(refPrec).Mul(bigF(float64(i)), bigLn2)
		p := bigExp(x.Quo(x, bigF(expN)))
		s, _ := p.Float64()
		tail := new(big.Float).SetPrec(refPrec).Quo(p, bigF(s))
		tf, _ := tail.Sub(tail, bigF(1)).Float64()
		want[2*i], want[2*i+1] = math.Float64bits(tf), math.Float64bits(s)-uint64(i)<<(52-expTableBits)
		fmt.Fprintf(&src, "\t0x%016x, 0x%016x, // %d\n", want[2*i], want[2*i+1], i)
	}
	if want != expTable {
		t.Errorf("expTable differs from its math/big generation; the table is:\n%s", src.String())
	}
}

// TestExpIntoAliasing checks ExpInto in place against a separate destination,
// and its length check.
func TestExpIntoAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := make([]float64, 257)
	for i := range x {
		x[i] = (rng.Float64() - 0.5) * 1500
	}
	x[3], x[7], x[11] = math.NaN(), math.Inf(-1), 0x1p-70
	sep := make([]float64, len(x))
	ExpInto(sep, x)
	ExpInto(x, x)
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(sep[i]) {
			t.Fatalf("element %d: in place %v, into a separate slice %v", i, x[i], sep[i])
		}
	}
	defer expectPanic(t, "ExpInto with a short destination")
	ExpInto(make([]float64, 2), x)
}

// benchExpArgs is one 50-wide hidden layer's pre-activations.
func benchExpArgs() []float64 {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 50)
	for i := range x {
		x[i] = rng.NormFloat64() * 3
	}
	return x
}

// BenchmarkExpInto times ExpInto over 50 values beside a math.Exp loop.
func BenchmarkExpInto(b *testing.B) {
	x, dst := benchExpArgs(), make([]float64, 50)
	b.Run("ExpInto", func(b *testing.B) {
		for b.Loop() {
			ExpInto(dst, x)
		}
	})
	b.Run("math.Exp", func(b *testing.B) {
		for b.Loop() {
			for j, v := range x {
				dst[j] = math.Exp(v)
			}
		}
	})
}

// BenchmarkSigmoid times a 50-wide sigmoid 1/(1+e^−x) as the network
// computes it (negate, ExpInto, 1/(1+e)) beside a math.Exp loop.
func BenchmarkSigmoid(b *testing.B) {
	x, dst := benchExpArgs(), make([]float64, 50)
	b.Run("ExpInto", func(b *testing.B) {
		for b.Loop() {
			for j, v := range x {
				dst[j] = -v
			}
			ExpInto(dst, dst)
			for j, e := range dst {
				dst[j] = 1 / (1 + e)
			}
		}
	})
	b.Run("math.Exp", func(b *testing.B) {
		for b.Loop() {
			for j, v := range x {
				dst[j] = 1 / (1 + math.Exp(-v))
			}
		}
	})
}
