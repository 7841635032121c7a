// Package numutil provides numerically stable primitives used by the
// gradient-descent flow solver: the symmetric soft-max from Sherman's
// framework, log-sum-exp, and small arithmetic helpers.
//
// The soft-max of a vector y is
//
//	smax(y) = log Σ_i (e^{y_i} + e^{-y_i}),
//
// a differentiable overestimate of max_i |y_i| that is tight up to an
// additive log(2k). Potentials in AlmostRoute are Θ(ε⁻¹ log n), so the raw
// exponentials overflow float64 for small ε; every function here evaluates
// in shifted form.
//
// The solver's soft-max slots, φ₁'s through ScaledExpSum and φ₂'s through
// capprox.RowExp, all go through SymExpSum, which takes one table-driven
// exponential per slot instead of two math.Exp calls. SoftMax,
// SoftMaxGrad and LogSumExp stay on math.Exp as the tests' references.
package numutil

import (
	"math"

	"distflow/internal/par"
)

// SoftMax returns smax(y) = log Σ_i (e^{y_i} + e^{-y_i}) evaluated stably.
// For an empty slice it returns math.Inf(-1) (the log of an empty sum).
func SoftMax(y []float64) float64 {
	if len(y) == 0 {
		return math.Inf(-1)
	}
	m := 0.0
	for _, v := range y {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	var sum float64
	for _, v := range y {
		sum += math.Exp(v-m) + math.Exp(-v-m)
	}
	return m + math.Log(sum)
}

// SoftMaxGrad writes into grad the gradient of SoftMax at y:
//
//	∂smax/∂y_i = (e^{y_i} - e^{-y_i}) / Σ_j (e^{y_j} + e^{-y_j}).
//
// grad must have len(y). It returns the soft-max value as well, since the
// two are always needed together and share the shifted sum.
func SoftMaxGrad(y []float64, grad []float64) float64 {
	if len(grad) != len(y) {
		panic("numutil: grad length mismatch")
	}
	if len(y) == 0 {
		return math.Inf(-1)
	}
	m := 0.0
	for _, v := range y {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	var sum float64
	for i, v := range y {
		p := math.Exp(v - m)
		q := math.Exp(-v - m)
		sum += p + q
		grad[i] = p - q
	}
	inv := 1 / sum
	for i := range grad {
		grad[i] *= inv
	}
	return m + math.Log(sum)
}

// SoftMaxGradScaledPar is SoftMaxGrad evaluated on the shared worker
// pool (internal/par) at the implicit vector y_i = f_i·scale_i, without
// materializing y: the max shift, the shifted exponential sum, and the
// gradient scaling each run chunk-parallel (the kernels below), reading
// f and scale directly. grad receives ∂smax/∂y (not ∂/∂f). The chunked
// reduction order is fixed by len(f) alone, so the result is
// bit-identical at every worker count — but it differs in the last ulps
// from the single-sweep SoftMaxGrad, which remains the reference for
// tests.
func SoftMaxGradScaledPar(f, scale, grad []float64) float64 {
	if len(scale) != len(f) || len(grad) != len(f) {
		panic("numutil: scale/grad length mismatch")
	}
	if len(f) == 0 {
		return math.Inf(-1)
	}
	m := par.Max(len(f), func(lo, hi int) float64 { return ScaledAbsMax(f, scale, lo, hi) })
	sum := par.Sum(len(f), func(lo, hi int) float64 { return ScaledExpSum(f, scale, grad, m, lo, hi) })
	inv := 1 / sum
	par.For(len(f), func(lo, hi int) { ScaleRange(grad, inv, lo, hi) })
	return m + math.Log(sum)
}

// The three passes of SoftMaxGradScaledPar over one index range
// [lo,hi) — the soft-max kernels. The flat path runs them on par chunks;
// internal/shard runs them on the chunks each shard owns and folds the
// partials with par.FoldMax/par.FoldSum, so both paths compute the same
// bits.

// ScaledAbsMax returns max |f_i·scale_i| over [lo,hi), 0 for an empty
// range: the soft-max shift.
func ScaledAbsMax(f, scale []float64, lo, hi int) float64 {
	f = f[lo:hi]
	scale = scale[lo:hi][:len(f)]
	m := 0.0
	for i, x := range f {
		if a := math.Abs(x * scale[i]); a > m {
			m = a
		}
	}
	return m
}

// ScaledExpSum writes the gradient numerators grad_i = e^{y_i−m} −
// e^{−y_i−m} of y_i = f_i·scale_i over [lo,hi) and returns the range's
// shifted exponential sum Σ (e^{y_i−m} + e^{−y_i−m}): y goes into grad,
// which SymExpSum then overwrites in place.
func ScaledExpSum(f, scale, grad []float64, m float64, lo, hi int) float64 {
	f = f[lo:hi]
	scale = scale[lo:hi][:len(f)]
	grad = grad[lo:hi][:len(f)]
	for i, x := range f {
		grad[i] = x * scale[i]
	}
	return SymExpSum(grad, grad, m)
}

// ScaleRange multiplies x_i by c over [lo,hi): the gradient's 1/sum
// normalization.
func ScaleRange(x []float64, c float64, lo, hi int) {
	x = x[lo:hi]
	for i := range x {
		x[i] *= c
	}
}

// LogSumExp returns log Σ_i e^{y_i} evaluated stably.
func LogSumExp(y []float64) float64 {
	if len(y) == 0 {
		return math.Inf(-1)
	}
	m := math.Inf(-1)
	for _, v := range y {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var sum float64
	for _, v := range y {
		sum += math.Exp(v - m)
	}
	return m + math.Log(sum)
}

// AbsMax returns max_i |y_i|, or 0 for an empty slice.
func AbsMax(y []float64) float64 {
	m := 0.0
	for _, v := range y {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// CeilLog2 returns ⌈log₂ x⌉ for x ≥ 1, and 0 for x ≤ 1.
func CeilLog2(x int64) int {
	if x <= 1 {
		return 0
	}
	k := 0
	v := x - 1
	for v > 0 {
		v >>= 1
		k++
	}
	return k
}

// ILog2 returns ⌊log₂ x⌋ for x ≥ 1; it panics for x ≤ 0.
func ILog2(x int64) int {
	if x <= 0 {
		panic("numutil: ILog2 of non-positive value")
	}
	k := -1
	for x > 0 {
		x >>= 1
		k++
	}
	return k
}
