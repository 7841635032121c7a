package numutil

import "math"

// The table-driven exponential of SymExpSum, after the double-precision
// exp of ARM's optimized-routines: x = k·ln2/N + r with integer k and
// |r| ≤ ln2/2N, so e^x = 2^(k/N)·e^r, where 2^(k/N) is a table entry
// for k mod N with ⌊k/N⌋ added to its exponent bits, and e^r − 1 is a
// degree-5 polynomial. Without the original's per-entry tail it stays
// within 2 ulp of math.Exp over [−708, 0] (measured on 2·10⁷ random
// draws).
const (
	expBits = 7
	expN    = 1 << expBits
	// N/ln2, and −ln2/N split so that k·expNegLn2Hi is exact for
	// |k| < 2^17, that is for every x > −1024·ln2 ≈ −709.8.
	expInvLn2N  = 0x1.71547652b82fep0 * expN
	expNegLn2Hi = -0x1.62e42fefa0000p-8
	expNegLn2Lo = -0x1.cf79abc9e3b3ap-47
	// Adding 1.5·2^52 rounds z to the nearest integer k and leaves k in
	// the low mantissa bits.
	expShift = 0x1.8p52
	expC2    = 0x1.ffffffffffdbdp-2
	expC3    = 0x1.555555555543cp-3
	expC4    = 0x1.55555cf172b91p-5
	expC5    = 0x1.1111167a4d017p-7
	// e^x is a normal float64 for every x ≥ −expMaxShift (e^{−708} ≈
	// 3.3e-308 > 2^−1022), so expTable needs no subnormal handling.
	expMaxShift = 708
)

// expTab[j] holds the bits of 2^(j/N) minus j<<45, so that adding the
// rounded k shifted left by 45 puts ⌊k/N⌋ into the exponent field.
var expTab [expN]uint64

func init() {
	for j := range expTab {
		expTab[j] = math.Float64bits(math.Exp2(float64(j)/expN)) - uint64(j)<<(52-expBits)
	}
}

// expTable returns e^x for x ∈ [−708, 0]. x is reused for r and the
// result for the scale 2^(k/N): that keeps the function within the
// compiler's inlining budget, so SymExpSum's loops pay no call per slot
// (`go build -gcflags=-m ./internal/numutil/` reports it inlined).
func expTable(x float64) (t float64) {
	kd := expInvLn2N*x + expShift
	ki := math.Float64bits(kd)
	kd -= expShift
	x = x + kd*expNegLn2Hi + kd*expNegLn2Lo
	r2 := x * x
	t = math.Float64frombits(expTab[ki%expN] + ki<<(52-expBits))
	return t + t*(x+r2*(expC2+x*expC3)+r2*r2*(expC4+x*expC5))
}

// SymExpSum writes the symmetric soft-max gradient numerators
// out_i = e^{y_i−m} − e^{−y_i−m} and returns Σ (e^{y_i−m} + e^{−y_i−m}):
// the kernel behind ScaledExpSum (φ₁) and capprox.RowExp (φ₂). m must
// be at least max |y_i|; out must have len(y) and may alias y.
//
// Every slot costs one exponential. With h = e^{−m} taken once and
// t = e^{−|y|} per slot, the two exponentials are h/t and h·t, so
// out_i = Copysign(h/t − h·t, y_i). At y_i = ±0, t is exactly 1, so
// out_i is exactly zero where the gradient is mathematically zero;
// elsewhere h/t ≥ h·t, so out_i has the sign of y_i.
//
// For m > 708, h is not a normal float. Then e^{−|y|−m} < e^{−708} is
// dropped, and e^{|y|−m} is taken directly and flushed to zero below
// e^{−708}: out_i is exactly zero for |y_i| < m − 708, at y_i = ±0 in
// particular.
func SymExpSum(y, out []float64, m float64) float64 {
	out = out[:len(y)]
	if m > expMaxShift {
		return symExpSumWide(y, out, m)
	}
	s := 0.0
	h := math.Exp(-m)
	for i, v := range y {
		t := expTable(-math.Abs(v))
		p, q := h/t, h*t
		s += p + q
		out[i] = math.Copysign(p-q, v)
	}
	return s
}

// symExpSumWide is SymExpSum for m > 708.
func symExpSumWide(y, out []float64, m float64) float64 {
	s := 0.0
	for i, v := range y {
		a := math.Abs(v)
		p := 0.0
		if x := a - m; x >= -expMaxShift {
			// a − m = x + lo exactly, since m ≥ a; e^lo ≈ 1 + lo keeps
			// the rounding of x out of p.
			lo := a - (x + m)
			p = expTable(x)
			p += p * lo
		}
		s += p
		out[i] = math.Copysign(p, v)
	}
	return s
}
