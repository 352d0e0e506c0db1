package lm

import "math"

// geluF32 is the encoder's GELU, tanh form, evaluated in float64 and
// rounded once to float32. It defines the bits; geluInPlace reproduces
// them more cheaply and falls back on it.
func geluF32(x float32) float32 {
	xf := float64(x)
	return float32(0.5 * xf * (1 + math.Tanh(0.7978845608*(xf+0.044715*xf*xf*xf))))
}

// geluInPlace replaces every x of xs by geluF32(x), bit for bit, and
// returns how many it computed by calling geluF32.
//
// With y the argument of geluF32's tanh, 0.5·x·(1+tanh(y)) is
// x/(1+exp(−2y)): one exp, inlined here, one division, and no sign to
// branch on. Call that float64 value g, and r the float64 geluF32 rounds.
// Both lie within a few units of |x|·2^-53 of the exact GELU, so
// |g − r| ≤ b = |x|·2^-47. When g−b and g+b round to one float32, r, lying
// between them, rounds to it too. Near a rounding boundary that test fails
// and geluF32 runs: on N(0,1) inputs about 5 times in a million. math.Tanh
// documents no error bound, so the bound is not taken on trust:
// TestGELUSweep checks every float32 input. ±0, subnormals, ±Inf, NaN and
// |x| ≥ 16 (exp16) always take geluF32.
//
// x is widened through its bits, not by conversion, because CVTSS2SD
// merges into its destination's old contents: the false dependency it
// carries from one element to the next would serialize the loop.
func geluInPlace(xs []float32) (fellBack int) {
	const round = 0x1.8p52 // adding it rounds to an integer held in the low bits
	for j, x := range xs {
		u := math.Float32bits(x)
		ex := u >> 23 & 0xff // biased exponent: 0 is ±0 or subnormal, 0xff ±Inf or NaN
		xf := math.Float64frombits(uint64(u>>31)<<63 | uint64(ex+1023-127)<<52 | uint64(u&0x7fffff)<<29)
		y := 0.7978845608 * (xf + 0.044715*xf*xf*xf)

		// exp(−2y) = 2^(k/64) · exp(ρ) with |ρ| ≤ ln2/128; 2^(k/64) is
		// expTab[k&63] with k>>6 added to its exponent, and exp(ρ) − 1 is
		// its Taylor polynomial to ρ⁵ (truncation error under 2^-54).
		kr := y*(-128/math.Ln2) + round
		k := int64(math.Float64bits(kr) - math.Float64bits(round))
		kf := kr - round
		rho := y*-2 - kf*(math.Ln2/64)
		rho2 := rho * rho
		p := rho + rho2*(1.0/2+rho*(1.0/6)) + rho2*rho2*(1.0/24+rho*(1.0/120))
		t := math.Float64frombits(expTab[k&63] + uint64(k>>6)<<52)
		g := xf / (1 + (t + t*p))

		b := math.Abs(xf) * 0x1p-47
		v := float32(g + b)
		if ex-1 < exp16-1 && float32(g-b) == v {
			xs[j] = v
		} else {
			xs[j] = geluF32(x)
			fellBack++
		}
	}
	return fellBack
}

// exp16 is the biased float32 exponent of 16. geluInPlace leaves |x| ≥ 16
// to geluF32: exp(−2y) leaves float64's range once |x| passes about 21,
// and 16 is the power of two below. GELU there is x or about 0, and such
// inputs are rare.
const exp16 = 127 + 4

// expTab[j] holds the bits of 2^(j/64).
var expTab = func() (t [64]uint64) {
	for j := range t {
		t[j] = math.Float64bits(math.Exp2(float64(j) / 64))
	}
	return t
}()
