package numutil

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"distflow/internal/par"
)

func TestSoftMaxSmall(t *testing.T) {
	tests := []struct {
		name string
		y    []float64
		want float64
	}{
		{"zero", []float64{0}, math.Log(2)},
		{"one", []float64{1}, math.Log(math.E + 1/math.E)},
		{"sym", []float64{3, -3}, math.Log(2*math.Exp(3) + 2*math.Exp(-3))},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := SoftMax(tc.y)
			if math.Abs(got-tc.want) > 1e-12 {
				t.Errorf("SoftMax(%v) = %v, want %v", tc.y, got, tc.want)
			}
		})
	}
}

func TestSoftMaxEmpty(t *testing.T) {
	if got := SoftMax(nil); !math.IsInf(got, -1) {
		t.Errorf("SoftMax(nil) = %v, want -Inf", got)
	}
	if got := LogSumExp(nil); !math.IsInf(got, -1) {
		t.Errorf("LogSumExp(nil) = %v, want -Inf", got)
	}
}

// smax must dominate max|y_i| and be within log(2k) of it.
func TestSoftMaxBracketsMax(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		y := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp quick-generated values into a sane range.
			y[i] = math.Mod(v, 50)
			if math.IsNaN(y[i]) {
				y[i] = 0
			}
		}
		s := SoftMax(y)
		m := AbsMax(y)
		upper := m + math.Log(2*float64(len(y)))
		return s >= m-1e-9 && s <= upper+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// SoftMax must not overflow for large inputs where naive exp would.
func TestSoftMaxLargeValues(t *testing.T) {
	y := []float64{5000, -4999, 4998}
	got := SoftMax(y)
	if math.IsInf(got, 1) || math.IsNaN(got) {
		t.Fatalf("SoftMax overflowed: %v", got)
	}
	if math.Abs(got-5000) > 1 {
		t.Errorf("SoftMax(%v) = %v, want ~5000", y, got)
	}
}

// Gradient checked against central finite differences.
func TestSoftMaxGradFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64() * 3
		}
		grad := make([]float64, n)
		SoftMaxGrad(y, grad)
		const h = 1e-6
		for i := 0; i < n; i++ {
			yp := append([]float64(nil), y...)
			ym := append([]float64(nil), y...)
			yp[i] += h
			ym[i] -= h
			fd := (SoftMax(yp) - SoftMax(ym)) / (2 * h)
			if math.Abs(fd-grad[i]) > 1e-5 {
				t.Fatalf("trial %d coord %d: grad %v, finite-diff %v (y=%v)", trial, i, grad[i], fd, y)
			}
		}
	}
}

func TestSoftMaxGradValueMatchesSoftMax(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(16)
		y := make([]float64, n)
		for i := range y {
			y[i] = rng.NormFloat64() * 10
		}
		grad := make([]float64, n)
		v1 := SoftMaxGrad(y, grad)
		v2 := SoftMax(y)
		if math.Abs(v1-v2) > 1e-12*math.Max(1, math.Abs(v2)) {
			t.Fatalf("value mismatch: %v vs %v", v1, v2)
		}
	}
}

func TestSoftMaxGradLenMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on grad length mismatch")
		}
	}()
	SoftMaxGrad([]float64{1, 2}, make([]float64, 1))
}

// Gradient entries are bounded by 1 in absolute value and sum of |g| <= 1.
func TestSoftMaxGradBounded(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		y := make([]float64, len(raw))
		for i, v := range raw {
			y[i] = math.Mod(v, 100)
			if math.IsNaN(y[i]) {
				y[i] = 0
			}
		}
		grad := make([]float64, len(y))
		SoftMaxGrad(y, grad)
		var sum float64
		for _, g := range grad {
			if math.Abs(g) > 1+1e-12 {
				return false
			}
			sum += math.Abs(g)
		}
		return sum <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLogSumExp(t *testing.T) {
	y := []float64{1, 2, 3}
	want := math.Log(math.Exp(1) + math.Exp(2) + math.Exp(3))
	if got := LogSumExp(y); math.Abs(got-want) > 1e-12 {
		t.Errorf("LogSumExp = %v, want %v", got, want)
	}
	// Stability.
	if got := LogSumExp([]float64{10000, 9999}); math.IsInf(got, 1) {
		t.Error("LogSumExp overflowed")
	}
}

func TestCeilLog2(t *testing.T) {
	tests := []struct {
		in   int64
		want int
	}{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {1024, 10}, {1025, 11}}
	for _, tc := range tests {
		if got := CeilLog2(tc.in); got != tc.want {
			t.Errorf("CeilLog2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestILog2(t *testing.T) {
	tests := []struct {
		in   int64
		want int
	}{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}}
	for _, tc := range tests {
		if got := ILog2(tc.in); got != tc.want {
			t.Errorf("ILog2(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for ILog2(0)")
		}
	}()
	ILog2(0)
}

func TestAbsMax(t *testing.T) {
	if got := AbsMax(nil); got != 0 {
		t.Errorf("AbsMax(nil) = %v, want 0", got)
	}
	if got := AbsMax([]float64{-5, 3}); got != 5 {
		t.Errorf("AbsMax = %v, want 5", got)
	}
}

// SoftMaxGradScaledPar at y = f·scale must agree with the single-sweep
// reference evaluated on the materialized product, up to reduction-order
// ulps, and be bit-identical at every worker count.
func TestSoftMaxGradScaledParMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 5, 4096, 9001} {
		f := make([]float64, n)
		scale := make([]float64, n)
		y := make([]float64, n)
		for i := range f {
			f[i] = rng.NormFloat64() * 20
			scale[i] = rng.Float64() + 0.01
			y[i] = f[i] * scale[i]
		}
		want := make([]float64, n)
		wantV := SoftMaxGrad(y, want)
		got := make([]float64, n)
		gotV := SoftMaxGradScaledPar(f, scale, got)
		if math.Abs(gotV-wantV) > 1e-12*math.Max(1, math.Abs(wantV)) {
			t.Fatalf("n=%d: value %v, want %v", n, gotV, wantV)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("n=%d: grad[%d] = %v, want %v", n, i, got[i], want[i])
			}
		}
		run := func(workers int) float64 {
			defer par.SetWorkers(par.SetWorkers(workers))
			return SoftMaxGradScaledPar(f, scale, got)
		}
		w1 := run(1)
		for _, w := range []int{3, 8} {
			if v := run(w); v != w1 {
				t.Fatalf("n=%d workers=%d: %v != %v", n, w, v, w1)
			}
		}
	}
}

// refSymExpSum is the two-math.Exp loop SymExpSum replaces.
func refSymExpSum(y, out []float64, m float64) float64 {
	s := 0.0
	for i, v := range y {
		p := math.Exp(v - m)
		q := math.Exp(-v - m)
		s += p + q
		out[i] = p - q
	}
	return s
}

// expSum returns e^{a+b} without the rounding of a + b: math.Exp of the
// rounded sum times 1 + its exact rounding error (TwoSum). Rounding
// y − m first, as refSymExpSum does, costs up to (|y|+m)·2⁻⁵³ relative,
// 5.7e-14 at m = 700, which would hide the kernel's own error.
func expSum(a, b float64) float64 {
	s := a + b
	bv := s - a
	lo := (a - (s - bv)) + (b - bv)
	return math.Exp(s) * (1 + lo)
}

// symExpInput returns ±0, ±m, ±1e-300 and n draws from [−m, m].
func symExpInput(rng *rand.Rand, m float64, n int) []float64 {
	y := []float64{0, math.Copysign(0, -1), m, -m, 1e-300, -1e-300}
	for i := 0; i < n; i++ {
		y = append(y, (2*rng.Float64()-1)*m)
	}
	return y
}

// SymExpSum must hold every slot within 1e-15·(p + q) of p − q, where
// p = e^{y−m} and q = e^{−y−m} are taken of the exact exponents, and its
// sum within 1e-14 relative, on both sides of the m > 708 switch; be
// exactly zero at y = ±0 and carry the sign of y wherever the reference
// is nonzero, with out aliasing y or not. Under the relative bound sits
// an absolute floor: 16 units of a subnormal's last place for m ≤ 708,
// where q may be subnormal, and e^{−708} for m > 708, under which the
// kernel drops q and flushes p to zero.
func TestSymExpSumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, m := range []float64{0.5, 30, 240, 700, 708.5, 800, 1e8} {
		floor := 0x1p-1070
		if m > 708 {
			floor = math.Exp(-708)
		}
		y := symExpInput(rng, m, 20000)
		out := make([]float64, len(y))
		sum := SymExpSum(y, out, m)
		refSum := 0.0
		for i, v := range y {
			p, q := expSum(v, -m), expSum(-v, -m)
			refSum += p + q
			o, ref := out[i], p-q
			switch {
			case math.IsNaN(o) || math.IsInf(o, 0) || math.Abs(o-ref) > 1e-15*(p+q)+floor:
				t.Errorf("m=%g y=%v: out %v, reference %v", m, v, o, ref)
			case v == 0 && o != 0:
				t.Errorf("m=%g y=%v: out %v, want 0", m, v, o)
			case ref != 0 && math.Signbit(o) != math.Signbit(v):
				t.Errorf("m=%g y=%v: out %v has the wrong sign", m, v, o)
			case m > 708 && math.Abs(v) < m-708 && o != 0:
				t.Errorf("m=%g y=%v: out %v, want it flushed to 0", m, v, o)
			}
		}
		if math.IsNaN(sum) || math.IsInf(sum, 0) || math.Abs(sum-refSum) > 1e-14*refSum {
			t.Errorf("m=%g: sum %v, reference %v", m, sum, refSum)
		}
		alias := append([]float64(nil), y...)
		if s := SymExpSum(alias, alias, m); s != sum {
			t.Errorf("m=%g: aliased sum %v, want %v", m, s, sum)
		}
		for i := range alias {
			if math.Float64bits(alias[i]) != math.Float64bits(out[i]) {
				t.Fatalf("m=%g: aliased out[%d] = %v, want %v", m, i, alias[i], out[i])
			}
		}
	}
}

// The soft-max kernels write into their callers' buffers and allocate
// nothing.
func TestScaledExpSumAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	f, scale, grad := make([]float64, 4096), make([]float64, 4096), make([]float64, 4096)
	for i := range f {
		f[i], scale[i] = rng.NormFloat64()*20, rng.Float64()+0.01
	}
	m := ScaledAbsMax(f, scale, 0, len(f))
	if a := testing.AllocsPerRun(20, func() { ScaledExpSum(f, scale, grad, m, 100, 4000) }); a != 0 {
		t.Errorf("ScaledExpSum: %v allocations per call, want 0", a)
	}
}

// BenchmarkSymExpSum and BenchmarkSymExpSumReference time one kernel
// call over 32,768 slots at m = 240; ns/op divided by 32,768 is the
// per-slot cost of each.
func BenchmarkSymExpSum(b *testing.B)          { benchSymExp(b, SymExpSum) }
func BenchmarkSymExpSumReference(b *testing.B) { benchSymExp(b, refSymExpSum) }

var benchSymExpSink float64

func benchSymExp(b *testing.B, kernel func(y, out []float64, m float64) float64) {
	const m = 240
	rng := rand.New(rand.NewSource(31))
	y := make([]float64, 1<<15)
	for i := range y {
		y[i] = (2*rng.Float64() - 1) * m
	}
	out := make([]float64, len(y))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSymExpSink += kernel(y, out, m)
	}
}
