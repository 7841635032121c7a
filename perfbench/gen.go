package main

// Input generation. Every input the program sees is drawn here from
// explicitly seeded math/rand sources, so a seed names one input set
// exactly; the program receives only the generated graphs, pairs,
// schedules and update batches.

import (
	"math"
	"math/rand"
	"sort"

	"distflow"
)

// newRand returns a math/rand source seeded with seed.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// edge is one undirected capacitated edge of a generated graph.
type edge struct {
	u, v int
	cap  int64
}

// edgeList is a generated graph: n vertices and edges in insertion
// order (edge i of the program's graph is edges[i]).
type edgeList struct {
	n     int
	edges []edge
}

// build returns the edge list as a fresh distflow.Graph.
func (el *edgeList) build() *distflow.Graph {
	g := distflow.NewGraph(el.n)
	for _, e := range el.edges {
		g.AddEdge(e.u, e.v, e.cap)
	}
	return g
}

// trackedGNP returns the GNP instance every BENCH_*.json document of the
// repository recorded: a uniform random attachment tree (vertex v ≥ 1
// joins a uniformly random earlier vertex), then each vertex pair u < v
// independently with probability deg/n, then capacities uniform in
// [1, maxCap] in edge order, all drawn from one source seeded with seed.
// It is a frozen copy of the draw order of the library's GNP and
// CapUniform generators, so the instance cannot drift when those change.
func trackedGNP(n int, deg float64, maxCap, seed int64) *edgeList {
	rng := newRand(seed)
	el := &edgeList{n: n}
	for v := 1; v < n; v++ {
		el.edges = append(el.edges, edge{u: v, v: rng.Intn(v)})
	}
	p := deg / float64(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				el.edges = append(el.edges, edge{u: u, v: v})
			}
		}
	}
	for i := range el.edges {
		el.edges[i].cap = 1 + rng.Int63n(maxCap)
	}
	return el
}

// grid returns the w×l grid (w columns, l rows) with row-major vertex
// ids, the right and down edge of each vertex in that order, and
// capacities uniform in [1, maxCap].
func grid(w, l int, maxCap int64, rng *rand.Rand) *edgeList {
	el := &edgeList{n: w * l}
	for y := 0; y < l; y++ {
		for x := 0; x < w; x++ {
			v := y*w + x
			if x+1 < w {
				el.edges = append(el.edges, edge{u: v, v: v + 1, cap: 1 + rng.Int63n(maxCap)})
			}
			if y+1 < l {
				el.edges = append(el.edges, edge{u: v, v: v + w, cap: 1 + rng.Int63n(maxCap)})
			}
		}
	}
	return el
}

// zipfRanks returns count ranks in [0, k) in random order, rank r
// appearing count·(r+1)^-s/Σ times rounded by largest remainder. Every
// seed offers the same popularity profile; only the order differs, so
// the number of requests to the cache's tail does not vary between runs.
func zipfRanks(k, count int, s float64, rng *rand.Rand) []int {
	weight := make([]float64, k)
	total := 0.0
	for r := range weight {
		weight[r] = math.Pow(float64(r+1), -s)
		total += weight[r]
	}
	quota := make([]int, k)
	frac := make([]float64, k)
	left := count
	for r, w := range weight {
		exact := float64(count) * w / total
		quota[r] = int(exact)
		frac[r] = exact - float64(quota[r])
		left -= quota[r]
	}
	order := make([]int, k)
	for r := range order {
		order[r] = r
	}
	sort.SliceStable(order, func(i, j int) bool { return frac[order[i]] > frac[order[j]] })
	for _, r := range order[:left] {
		quota[r]++
	}
	ranks := make([]int, 0, count)
	for r, q := range quota {
		for ; q > 0; q-- {
			ranks = append(ranks, r)
		}
	}
	rng.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	return ranks
}

// poissonArrivals returns count arrival offsets, in seconds, of a Poisson
// process on [0, span) conditioned on exactly count arrivals: sorted
// independent uniform points. Fixing the count keeps the offered load of
// every seed identical while the gaps stay exponential in distribution.
func poissonArrivals(count int, span float64, rng *rand.Rand) []float64 {
	at := make([]float64, count)
	for i := range at {
		at[i] = span * rng.Float64()
	}
	sort.Float64s(at)
	return at
}
