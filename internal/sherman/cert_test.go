package sherman

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"distflow/internal/graph"
	"distflow/internal/seqflow"
)

// cutOf returns the live capacity crossing the vertex set side.
func cutOf(g *graph.Graph, side []bool) float64 {
	c := 0.0
	for _, ed := range g.Edges() {
		if ed.Cap > 0 && side[ed.U] != side[ed.V] {
			c += float64(ed.Cap)
		}
	}
	return c
}

// On two 5-cliques joined by two light bridges the min cut (capacity 3)
// is unique, and the potential of a converged routing of the s-t
// demand ranks the source clique first: the sweep returns that cut.
func TestSweepCutFindsUniqueMinCut(t *testing.T) {
	g := graph.New(10)
	for _, base := range []int{0, 5} {
		for u := base; u < base+5; u++ {
			for v := u + 1; v < base+5; v++ {
				g.AddEdge(u, v, 10)
			}
		}
	}
	g.AddEdge(4, 5, 1)
	g.AddEdge(3, 6, 2)
	s, tt := 0, 9
	if opt := seqflow.MinCutValue(g, s, tt); opt != 3 {
		t.Fatalf("min cut %d, want 3", opt)
	}
	sv := NewSolver(g, approximator(t, g, 1))
	st := &stepState{eta: 1, pi: make([]float64, g.N())}
	if _, err := sv.almostRoute(context.Background(), graph.STDemand(g.N(), s, tt, 1), 0.3, Config{}, nil, nil, st); err != nil {
		t.Fatal(err)
	}
	c, side := sweepCut(g, st.pi, s, tt)
	if c != 3 {
		t.Fatalf("sweep cut %v, want the min cut 3 (π %v)", c, st.pi)
	}
	for v := range side {
		if side[v] != (v < 5) {
			t.Fatalf("sweep set %v, want the source clique {0..4}", side)
		}
	}
}

// On any potential — ties included — the sweep's set separates s from
// t, its capacity is the set's cut, and so it is at least the max flow.
func TestSweepCutSeparatesOnAnyPotential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		g := graph.CapUniform(graph.GNP(8+rng.Intn(20), 0.3, rng), 9, rng)
		n := g.N()
		s, tt := rng.Intn(n), rng.Intn(n)
		if s == tt {
			continue
		}
		pi := make([]float64, n)
		for v := range pi {
			// Few distinct values, so ties decide much of the ranking.
			pi[v] = float64(rng.Intn(4)) - 1.5
		}
		c, side := sweepCut(g, pi, s, tt)
		if side[s] == side[tt] {
			t.Fatalf("trial %d: set %v does not separate %d from %d", trial, side, s, tt)
		}
		if got := cutOf(g, side); got != c {
			t.Fatalf("trial %d: reported capacity %v, set's cut %v", trial, c, got)
		}
		if opt := float64(seqflow.MinCutValue(g, s, tt)); c < opt {
			t.Fatalf("trial %d: cut %v below max flow %v", trial, c, opt)
		}
	}
}

// Dead edges add no capacity and removed vertices join no set, even
// when the potential ranks them first.
func TestSweepCutSkipsDeadEdgesAndRemovedVertices(t *testing.T) {
	g := graph.New(5)
	g.AddEdge(0, 1, 4)
	g.AddEdge(1, 2, 3)
	dead := g.AddEdge(0, 2, 7)
	g.AddEdge(2, 3, 5)
	g.AddEdge(1, 4, 6)
	g.AddEdge(4, 3, 6)
	g.DeleteEdge(dead)
	g.RemoveVertex(4)
	pi := []float64{3, 2, 1, 0, 9}
	c, side := sweepCut(g, pi, 0, 3)
	// Live edges now form the path 0-1-2-3 (4, 3, 5): the best prefix
	// cut is {0, 1} at capacity 3.
	if c != 3 {
		t.Fatalf("sweep cut %v, want 3", c)
	}
	if side[4] {
		t.Fatal("removed vertex 4 joined the sweep set")
	}
	if got := cutOf(g, side); got != c {
		t.Fatalf("reported capacity %v, set's live cut %v", c, got)
	}
	if c, side := sweepCut(g, pi, 0, 4); !math.IsInf(c, 1) || side != nil {
		t.Fatalf("sweep to a removed sink returned %v, %v", c, side)
	}
}
