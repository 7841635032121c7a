package capprox

// PotentialRT fuses ApplyR → soft-max gradient → ApplyRT into per-tree
// sweeps. These tests pin it against the unfused composition (which
// remains the reference implementation) and its worker-count
// determinism.

import (
	"math"
	"math/rand"
	"testing"

	"distflow/internal/graph"
	"distflow/internal/numutil"
	"distflow/internal/par"
)

// unfusedPotentialRT reproduces the pre-fusion solver pipeline: flat
// scatter index over all non-root (tree, vertex) slots, SoftMaxGrad,
// then ApplyRTInto.
func unfusedPotentialRT(a *Approximator, r []float64, ta float64) (phi float64, pi []float64) {
	rr := a.ApplyR(r)
	var y []float64
	type slot struct{ k, v int }
	var slots []slot
	for k, t := range a.Trees {
		for v := 0; v < t.N(); v++ {
			if v != t.Root {
				slots = append(slots, slot{k, v})
				y = append(y, ta*rr[k][v])
			}
		}
	}
	grad := make([]float64, len(y))
	phi = numutil.SoftMaxGrad(y, grad)
	prices := make([][]float64, len(a.Trees))
	for k, t := range a.Trees {
		prices[k] = make([]float64, t.N())
	}
	for i, s := range slots {
		prices[s.k][s.v] = grad[i]
	}
	pi = a.ApplyRT(prices)
	return phi, pi
}

func fusedTestApproximator(t *testing.T, seed int64) (*graph.Graph, *Approximator) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.CapUniform(graph.GNP(80, 0.1, rng), 16, rng)
	a, err := Build(g, Config{ExactCuts: true}, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	return g, a
}

func TestPotentialRTMatchesUnfused(t *testing.T) {
	for trial := int64(0); trial < 3; trial++ {
		g, a := fusedTestApproximator(t, 100+trial)
		rng := rand.New(rand.NewSource(200 + trial))
		r := make([]float64, g.N())
		var sum float64
		for v := 1; v < g.N(); v++ {
			r[v] = rng.NormFloat64()
			sum += r[v]
		}
		r[0] = -sum
		for _, ta := range []float64{0.5, 4, 40} {
			scratch := a.NewEvalScratch()
			pi := make([]float64, g.N())
			phi := a.PotentialRT(r, ta, scratch, pi)
			wantPhi, wantPi := unfusedPotentialRT(a, r, ta)
			if math.Abs(phi-wantPhi) > 1e-9*math.Max(1, math.Abs(wantPhi)) {
				t.Fatalf("ta=%v: phi %v, unfused %v", ta, phi, wantPhi)
			}
			for v := range pi {
				if math.Abs(pi[v]-wantPi[v]) > 1e-9*math.Max(1, math.Abs(wantPi[v])) {
					t.Fatalf("ta=%v: pi[%d] = %v, unfused %v", ta, v, pi[v], wantPi[v])
				}
			}
		}
	}
}

// The fused evaluation must be bit-identical at every worker count.
func TestPotentialRTWorkerCountDeterminism(t *testing.T) {
	g, a := fusedTestApproximator(t, 300)
	r := make([]float64, g.N())
	rng := rand.New(rand.NewSource(301))
	var sum float64
	for v := 1; v < g.N(); v++ {
		r[v] = rng.NormFloat64()
		sum += r[v]
	}
	r[0] = -sum
	run := func(workers int) (float64, []float64) {
		defer par.SetWorkers(par.SetWorkers(workers))
		scratch := a.NewEvalScratch()
		pi := make([]float64, g.N())
		return a.PotentialRT(r, 7, scratch, pi), pi
	}
	wantPhi, wantPi := run(1)
	for _, w := range []int{2, 7} {
		phi, pi := run(w)
		if phi != wantPhi {
			t.Fatalf("workers=%d: phi %v, want %v", w, phi, wantPhi)
		}
		for v := range pi {
			if pi[v] != wantPi[v] {
				t.Fatalf("workers=%d: pi[%d] differs", w, v)
			}
		}
	}
}

// Extreme residual magnitudes must not overflow: the shifted
// exponentials keep the fused soft-max finite exactly like the
// reference.
func TestPotentialRTStability(t *testing.T) {
	g, a := fusedTestApproximator(t, 400)
	r := make([]float64, g.N())
	r[1] = 1e8
	r[2] = -1e8
	scratch := a.NewEvalScratch()
	pi := make([]float64, g.N())
	phi := a.PotentialRT(r, 100, scratch, pi)
	if math.IsInf(phi, 0) || math.IsNaN(phi) {
		t.Fatalf("phi = %v", phi)
	}
	for v, p := range pi {
		if math.IsInf(p, 0) || math.IsNaN(p) {
			t.Fatalf("pi[%d] = %v", v, p)
		}
	}
}

// RowExp is numutil.SymExpSum over a range minus the root, whose slot
// it zeroes, and allocates nothing.
func TestRowExpSkipsRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(500))
	y := make([]float64, 300)
	for v := range y {
		y[v] = 30 * rng.NormFloat64()
	}
	m := numutil.AbsMax(y)
	for _, root := range []int{0, 40, 99, 100, 299} {
		got := append([]float64(nil), y...)
		s := RowExp(got, root, m, 40, 100)
		want := append([]float64(nil), y...)
		var wantS float64
		for v := 40; v < 100; v++ {
			if v != root {
				wantS += numutil.SymExpSum(y[v:v+1], want[v:v+1], m)
			}
		}
		if root >= 40 && root < 100 {
			want[root] = 0
		}
		if math.Abs(s-wantS) > 1e-14*wantS {
			t.Errorf("root %d: sum %v, want %v", root, s, wantS)
		}
		for v := range got {
			if got[v] != want[v] {
				t.Fatalf("root %d: y[%d] = %v, want %v", root, v, got[v], want[v])
			}
		}
	}
	buf := append([]float64(nil), y...)
	if a := testing.AllocsPerRun(20, func() { RowExp(buf, 150, m, 0, len(buf)) }); a != 0 {
		t.Errorf("RowExp: %v allocations per call, want 0", a)
	}
}
