package shard

import (
	"testing"

	"distflow/internal/numutil"
)

// FuzzEngineOperators holds a multi-shard engine to the flat kernels on
// fuzzed inputs: the input picks P ∈ {2, …, 8} and seeds the flow,
// demand and price vectors, and all five operators must return the
// flat kernels' results bit for bit, with every boundary mirror
// poisoned before each call. The graph is the 5000-vertex fixture
// (three vertex chunks, eight edge chunks), so every P runs at least
// two shards and exchanges across their boundaries — which the
// Router-level fuzzer's graphs, a chunk or less, never do.
func FuzzEngineOperators(f *testing.F) {
	f.Add(uint8(0), int64(1))
	f.Add(uint8(1), int64(2))
	f.Add(uint8(2), int64(3))
	f.Add(uint8(6), int64(4))
	fx := newFixture(f, 5000, 3, 13)
	n, m := fx.g.N(), fx.g.M()
	engines := map[int]*Engine{}
	for p := 2; p <= 8; p++ {
		engines[p] = fx.engine(f, p)
	}
	f.Fuzz(func(t *testing.T, pick uint8, seed int64) {
		e := engines[2+int(pick)%7]
		fx.rng.Seed(seed)
		fl, bs, pi := fx.randEdgeVec(), fx.randVertVec(), fx.randVertVec()
		price := make([]float64, m)
		for i := range price {
			price[i] = 0.1 + fx.rng.Float64()
		}
		ta := 0.5 + 2*fx.rng.Float64()

		wantW1 := make([]float64, m)
		wantPhi1 := numutil.SoftMaxGradScaledPar(fl, price, wantW1)
		wantDiv, wantR := make([]float64, n), make([]float64, n)
		fx.g.ResidualInto(fl, bs, wantDiv, wantR)
		ws := fx.apx.NewEvalScratch()
		wantPi := make([]float64, n)
		wantPhi2 := fx.apx.PotentialRT(wantR, ta, ws, wantPi)
		wantGrad := make([]float64, m)
		wantDelta := fx.g.GradientInto(wantW1, price, ta, pi, wantGrad)
		wantNorm := fx.apx.NormRbInto(bs, ws.Sub)

		w1, grad := make([]float64, m), make([]float64, m)
		div, r, gotPi := make([]float64, n), make([]float64, n), make([]float64, n)
		poisonMirrors(e)
		phi1, _ := e.SoftMaxGradScaled(fl, price, w1)
		sameF64(t, "phi1", phi1, wantPhi1)
		sameVec(t, "softmax grad", w1, wantW1)
		poisonMirrors(e)
		e.Residual(fl, bs, div, r)
		sameVec(t, "div", div, wantDiv)
		sameVec(t, "r", r, wantR)
		poisonMirrors(e)
		phi2, _ := e.PotentialRT(r, ta, ws.Sub, ws.PT, gotPi)
		sameF64(t, "phi2", phi2, wantPhi2)
		sameVec(t, "pi", gotPi, wantPi)
		poisonMirrors(e)
		delta, _ := e.GradientDelta(w1, price, ta, pi, grad)
		sameF64(t, "delta", delta, wantDelta)
		sameVec(t, "grad", grad, wantGrad)
		poisonMirrors(e)
		norm, _ := e.NormRb(bs, ws.Sub)
		sameF64(t, "normRb", norm, wantNorm)
	})
}
