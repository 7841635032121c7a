package distflow

// Property and fuzz tests pinning the solver's contracts on arbitrary
// small graphs: MaxFlow stays within (1+ε) of the exact Dinic optimum
// and its CertBound bounds OPT/Value, and RouteDemand always returns an
// exactly-conserving flow whose reported congestion matches the flow it
// returns.

import (
	"math"
	"math/rand"
	"testing"
)

// fuzzGraph decodes a connected multigraph from raw fuzz bytes: the
// first byte picks n, a spanning chain guarantees connectivity, and
// every remaining byte triple adds one extra edge.
func fuzzGraph(data []byte) *Graph {
	if len(data) == 0 {
		return nil
	}
	n := 2 + int(data[0])%10
	data = data[1:]
	g := NewGraph(n)
	for v := 1; v < n; v++ {
		capacity := int64(1)
		parent := v - 1
		if len(data) >= 2 {
			capacity += int64(data[0]) % 9
			parent = int(data[1]) % v
			data = data[2:]
		}
		g.AddEdge(v, parent, capacity)
	}
	for len(data) >= 3 {
		u := int(data[0]) % n
		v := int(data[1]) % n
		capacity := 1 + int64(data[2])%9
		data = data[3:]
		if u != v {
			g.AddEdge(u, v, capacity)
		}
	}
	return g
}

func FuzzMaxFlow(f *testing.F) {
	f.Add([]byte{4, 3, 5, 7, 0, 2, 9, 1, 3, 4})
	f.Add([]byte{9, 1, 1, 1, 1, 1, 1, 1, 1, 5, 7, 3, 2, 6, 8})
	f.Add([]byte{2, 8})
	f.Add([]byte{11, 200, 250, 3, 17, 90, 41, 5, 5, 5, 12, 13, 14})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := fuzzGraph(data)
		if g == nil {
			return
		}
		const eps = 0.3
		exact, _ := ExactMaxFlow(g, 0, g.N()-1)
		res, err := MaxFlow(g, 0, g.N()-1, Options{Epsilon: eps, Seed: 1})
		if err != nil {
			t.Fatalf("MaxFlow failed on n=%d m=%d: %v", g.N(), g.M(), err)
		}
		if res.Value > float64(exact)*1.0001 {
			t.Fatalf("approximate value %v exceeds exact maximum %d", res.Value, exact)
		}
		// The implementation composes two (1+eps) stages; hold it to the
		// compound bound with a little slack for the residual routing.
		if res.Value < float64(exact)/((1+eps)*(1+eps))-1e-9 {
			t.Fatalf("approximate value %v below (1+ε)² bound of exact %d", res.Value, exact)
		}
		if float64(exact) > res.Value*res.CertBound*(1+1e-9) {
			t.Fatalf("certificate violated: exact %d > value %v × bound %v", exact, res.Value, res.CertBound)
		}
		// The returned flow must be feasible and realize the value.
		for e, fe := range res.Flow {
			_, _, capacity := g.EdgeEndpoints(e)
			if math.Abs(fe) > float64(capacity)*(1+1e-9) {
				t.Fatalf("edge %d overloaded: |%v| > %d", e, fe, capacity)
			}
		}
		div := divergence(g, res.Flow)
		for v := 1; v < g.N()-1; v++ {
			if math.Abs(div[v]) > 1e-6*math.Max(1, res.Value) {
				t.Fatalf("conservation broken at internal vertex %d: %v", v, div[v])
			}
		}
		if math.Abs(div[0]-res.Value) > 1e-6*math.Max(1, res.Value) {
			t.Fatalf("source outflow %v does not match value %v", div[0], res.Value)
		}
	})
}

// FuzzShardEquivalence pins the sharded engine's determinism contract
// on arbitrary small graphs: a router with Options.Shards set returns
// bit-identical values and flow vectors to the single-address-space
// path, on topologies the generator never curated (multi-edges, tiny
// n, skewed capacities). Its graphs have at most 11 vertices, one
// partition chunk, so every engine here runs one shard on the caller;
// internal/shard's FuzzEngineOperators fuzzes the multi-shard exchange.
func FuzzShardEquivalence(f *testing.F) {
	f.Add([]byte{4, 3, 5, 7, 0, 2, 9, 1, 3, 4}, uint8(2))
	f.Add([]byte{9, 1, 1, 1, 1, 1, 1, 1, 1, 5, 7, 3, 2, 6, 8}, uint8(4))
	f.Add([]byte{2, 8}, uint8(8))
	f.Add([]byte{11, 200, 250, 3, 17, 90, 41, 5, 5, 5, 12, 13, 14}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, shards uint8) {
		g := fuzzGraph(data)
		if g == nil {
			return
		}
		p := 1 + int(shards)%8
		opts := Options{Epsilon: 0.3, Seed: 1, DisableWarmStart: true}
		want, err := MaxFlow(g, 0, g.N()-1, opts)
		if err != nil {
			t.Fatalf("unsharded MaxFlow failed on n=%d m=%d: %v", g.N(), g.M(), err)
		}
		opts.Shards = p
		res, err := MaxFlow(fuzzGraph(data), 0, g.N()-1, opts)
		if err != nil {
			t.Fatalf("sharded (P=%d) MaxFlow failed on n=%d m=%d: %v", p, g.N(), g.M(), err)
		}
		if math.Float64bits(res.Value) != math.Float64bits(want.Value) {
			t.Fatalf("P=%d: value %v, want %v (bitwise)", p, res.Value, want.Value)
		}
		for e := range want.Flow {
			if math.Float64bits(res.Flow[e]) != math.Float64bits(want.Flow[e]) {
				t.Fatalf("P=%d: flow[%d] = %v, want %v (bitwise)", p, e, res.Flow[e], want.Flow[e])
			}
		}
	})
}

// RouteDemand must always return a flow that meets the demand exactly
// and report the congestion of exactly that flow.
func TestRouteDemandConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.Intn(20)
		g := NewGraph(n)
		for v := 1; v < n; v++ {
			g.AddEdge(v, rng.Intn(v), 1+rng.Int63n(9))
		}
		for k := 0; k < n/2; k++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, 1+rng.Int63n(9))
			}
		}
		r, err := NewRouter(g, Options{Seed: int64(trial + 1)})
		if err != nil {
			t.Fatal(err)
		}
		// Random multi-source demand summing to zero.
		b := make([]float64, n)
		for i := 0; i < 3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			amount := rng.Float64() * 4
			b[u] += amount
			b[v] -= amount
		}
		flow, cong, err := r.RouteDemand(b, 0.4)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		div := divergence(g, flow)
		for v := range b {
			if math.Abs(div[v]-b[v]) > 1e-6 {
				t.Fatalf("trial %d: conservation broken at %d: %v vs %v", trial, v, div[v], b[v])
			}
		}
		// Reported congestion is the congestion of the returned flow.
		recomputed := 0.0
		for e, fe := range flow {
			_, _, capacity := g.EdgeEndpoints(e)
			if c := math.Abs(fe) / float64(capacity); c > recomputed {
				recomputed = c
			}
		}
		if recomputed != cong {
			t.Fatalf("trial %d: reported congestion %v, flow has %v", trial, cong, recomputed)
		}
		// And it respects the certified lower bound.
		if lb := r.CongestionLowerBound(b); lb > cong*1.0001 {
			t.Fatalf("trial %d: lower bound %v exceeds achieved congestion %v", trial, lb, cong)
		}
	}
}
