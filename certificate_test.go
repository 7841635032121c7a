package distflow

// The solver's stop rules (DESIGN.md §5): a cold MaxFlow stops as soon
// as an s-t cut certifies its answer within 1 + ε/50, and escalates
// only when the answer in hand fails that certificate. These tests pin
// the false alarm the certificate removes, and (behind DISTFLOW_ORACLE)
// check every answer's certificate against the exact optimum at sizes
// far beyond the fuzz graphs.

import (
	"math/rand"
	"os"
	"testing"
)

// trackedGNP returns the GNP instance family the benchmarks track: a
// uniform random attachment tree (vertex v ≥ 1 joins a uniformly
// random earlier vertex), then each vertex pair u < v independently
// with probability deg/n, then capacities uniform in [1, maxCap] in
// edge order, all drawn from one source seeded with seed. It is a
// frozen copy of perfbench's draw order, so the instances cannot drift
// with the library's generators.
func trackedGNP(n int, deg float64, maxCap, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	type edge struct{ u, v int }
	var edges []edge
	for v := 1; v < n; v++ {
		edges = append(edges, edge{v, rng.Intn(v)})
	}
	p := deg / float64(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, edge{u, v})
			}
		}
	}
	g := NewGraph(n)
	for _, e := range edges {
		g.AddEdge(e.u, e.v, 1+rng.Int63n(maxCap))
	}
	return g
}

// corridorGrid returns perfbench grid-churn's side×side grid
// (row-major ids; each vertex's right, then down edge; capacities
// uniform in [1, 64] drawn from seed 3) and its four corridors: the
// middle row, the middle column and the two diagonals' corners.
func corridorGrid(side int) (*Graph, [4][2]int) {
	rng := rand.New(rand.NewSource(3))
	g := NewGraph(side * side)
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := y*side + x
			if x+1 < side {
				g.AddEdge(v, v+1, 1+rng.Int63n(64))
			}
			if y+1 < side {
				g.AddEdge(v, v+side, 1+rng.Int63n(64))
			}
		}
	}
	mid := side / 2
	return g, [4][2]int{
		{mid * side, mid*side + side - 1},
		{mid, (side-1)*side + mid},
		{0, side*side - 1},
		{side - 1, (side - 1) * side},
	}
}

// checkCertified holds one answer to the exact optimum: within the
// given ratio of it, and certified by its CertBound.
func checkCertified(t *testing.T, g *Graph, s, tt int, res *Result, ratio float64) {
	t.Helper()
	opt, _ := ExactMaxFlow(g, s, tt)
	if res.Value < float64(opt)/ratio {
		t.Errorf("%d→%d: value %v below OPT %d / %v (%d escalations)", s, tt, res.Value, opt, ratio, res.Escalations)
	}
	if float64(opt) > res.Value*res.CertBound*(1+1e-9) {
		t.Errorf("%d→%d: certificate violated: value %v × bound %v < OPT %d", s, tt, res.Value, res.CertBound, opt)
	}
}

// A query the residual test could not stop used to escalate twice here
// (37,648 iterations, seconds of work) although its answers were
// already within 0.3% of OPT. Its second round's answer is certified
// by an s-t cut at 1.0023, so the query must stop there without
// escalating.
func TestCertificateStopsFalseAlarm(t *testing.T) {
	g := trackedGNP(300, 8, 64, 2)
	r, err := NewRouter(g, Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	const s, tt = 212, 8
	res, err := r.MaxFlow(s, tt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Escalations != 0 {
		t.Errorf("%d→%d escalated %d times after %d iterations", s, tt, res.Escalations, res.Iterations)
	}
	checkCertified(t, g, s, tt, res, 1.01)
}

// TestCertificateOracle checks the (1+ε) guarantee and every answer's
// certificate against the exact optimum on the families the benchmarks
// run, at n = 10⁴: 8 pairs of a tracked-generator GNP graph served with
// the default router seed (with which the n = 2500 graph of the family
// escalated before the certificate stop), and the four corridors of a
// 100×100 grid, whose queries escalate. It is too slow for every test
// run, so it runs only with DISTFLOW_ORACLE=1 (the nightly-oracle CI
// job). internal/pushrelabel is not a second oracle here: its
// CONGEST simulation runs Ω(n²) rounds and cannot finish at this size.
func TestCertificateOracle(t *testing.T) {
	if os.Getenv("DISTFLOW_ORACLE") != "1" {
		t.Skip("set DISTFLOW_ORACLE=1 to run the n = 10⁴ certificate oracle")
	}
	const eps = 0.5
	t.Run("gnp", func(t *testing.T) {
		g := trackedGNP(10000, 8, 64, 3)
		r, err := NewRouter(g, Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for k := 0; k < 8; {
			s, tt := rng.Intn(g.N()), rng.Intn(g.N())
			if s == tt {
				continue
			}
			k++
			res, err := r.MaxFlow(s, tt)
			if err != nil {
				t.Fatalf("%d→%d: %v", s, tt, err)
			}
			checkCertified(t, g, s, tt, res, 1+eps)
		}
	})
	t.Run("grid", func(t *testing.T) {
		g, corridors := corridorGrid(100)
		r, err := NewRouter(g, Options{Epsilon: eps})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range corridors {
			res, err := r.MaxFlow(c[0], c[1])
			if err != nil {
				t.Fatalf("%d→%d: %v", c[0], c[1], err)
			}
			checkCertified(t, g, c[0], c[1], res, 1+eps)
		}
	})
}
