package sherman

import (
	"math"
	"math/rand"
	"testing"

	"distflow/internal/graph"
)

// stepInput returns m edges with capacities uniform in [1, 64] and a
// gradient of random sign on each, about 1% of them exactly zero: the
// shape of the gnp-cold instance's step (m = 12,459).
func stepInput(m int) ([]graph.Edge, []float64) {
	rng := rand.New(rand.NewSource(1))
	edges := make([]graph.Edge, m)
	grad := make([]float64, m)
	for e := range edges {
		edges[e].Cap = 1 + rng.Int63n(64)
		if rng.Intn(100) > 0 {
			grad[e] = rng.NormFloat64()
		}
	}
	return edges, grad
}

// signStep must equal sgn(g)·cap·delta·step bit for bit, signed zeros
// included, where sgn is -1, 0 or 1 (0 for a zero or NaN gradient).
func TestSignStepMatchesSignProduct(t *testing.T) {
	sgn := func(x float64) float64 {
		switch {
		case x > 0:
			return 1
		case x < 0:
			return -1
		}
		return 0
	}
	edges, grad := stepInput(12459)
	special := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -1e-300}
	for i, g := range special {
		grad[i] = g
		grad[len(special)+i] = g
		edges[len(special)+i].Cap = 0 // deleted edges keep their id with Cap 0
	}
	out := make([]float64, len(grad))
	for _, c := range []struct{ delta, step float64 }{{0.37, 1.25}, {1e-3, 7.5e4}, {2.5, 1}} {
		signStep(out, grad, edges, c.delta, c.step, 0, len(grad))
		for e, g := range grad {
			want := sgn(g) * float64(edges[e].Cap) * c.delta * c.step
			if math.Float64bits(out[e]) != math.Float64bits(want) {
				t.Fatalf("delta=%v step=%v edge %d (grad %v, cap %d): got %v, want %v",
					c.delta, c.step, e, g, edges[e].Cap, out[e], want)
			}
		}
	}
}

var stepSink float64

// BenchmarkSignStep times the step vector over gnp-cold's edge count on
// the calling goroutine (one call covers all 12,459 edges).
func BenchmarkSignStep(b *testing.B) {
	edges, grad := stepInput(12459)
	out := make([]float64, len(grad))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		signStep(out, grad, edges, 0.37, 1.25, 0, len(grad))
	}
	stepSink = out[len(out)-1]
}
