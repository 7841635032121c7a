// Package graph provides the weighted undirected multigraph model used
// throughout the repository, together with workload generators, cut
// utilities, and a plain-text interchange format.
//
// Conventions (shared by every package that consumes graph.Graph):
//
//   - Vertices are 0..N-1.
//   - Edges are stored in a global edge list; parallel edges and distinct
//     edge identities are preserved (the paper's constructions operate on
//     multigraphs, cf. §4 "we admit a multigraph as core").
//   - Every edge carries the paper's "arbitrary but fixed orientation":
//     Edge{U,V} is oriented U→V. A flow value f[e] > 0 means flow from U
//     to V; f[e] < 0 means flow from V to U.
//   - Capacities are positive int64, polynomially bounded as in §1.1.
//     Capacity 0 marks a deleted edge (a tombstone, see DeleteEdge);
//     edge and vertex ids are never reused or renumbered.
//   - For a flow vector f, Divergence(f)[v] = Σ_{e=(v,·)} f[e] −
//     Σ_{e=(·,v)} f[e], i.e. the net flow injected by v. A flow routes the
//     demand vector b iff Divergence(f) = b, with b[s] = +F and b[t] = −F
//     for an s-t flow of value F.
package graph

import (
	"errors"
	"fmt"
	"math"

	"distflow/internal/csr"
	"distflow/internal/par"
)

// Edge is an undirected capacitated edge with a fixed orientation U→V.
// Cap == 0 marks a tombstone: the edge was deleted but keeps its id.
type Edge struct {
	U, V int
	Cap  int64
}

// Arc is one directional incidence of an edge at a vertex: the neighbour
// and the index of the underlying edge in the graph's edge list.
type Arc struct {
	To int // neighbour vertex
	E  int // edge index into Graph.Edges
}

// ovArc is one overlay incidence: an arc appended after the base CSR
// was finalized, chained per vertex in insertion order.
type ovArc struct {
	a    Arc
	next int32 // arena index of the vertex's next overlay arc (-1 = end)
}

// Graph is an undirected capacitated multigraph.
// The zero value is an empty graph with no vertices; use New.
//
// Adjacency is stored in compressed-sparse-row (CSR) form — one flat
// arc array packed by vertex, delimited by an offset table — plus a
// delta overlay for dynamic topology churn:
//
//   - During bulk construction (before the first adjacency access)
//     AddEdge only appends to the edge list; the first access runs one
//     O(n+m) counting pass (Finalize), exactly as before.
//   - After the base CSR exists, AddEdge appends the two new incidences
//     to a per-vertex overlay chain in an append arena instead of
//     re-finalizing; DeleteEdge tombstones the edge in place (Cap = 0,
//     arcs stay put and are skipped during iteration); AddVertex extends
//     the vertex range without touching the base table. Iteration order
//     is stable under churn: base arcs in CSR order first, then overlay
//     arcs in insertion order.
//   - When the overlay plus the tombstoned base arcs exceed
//     OverlayCompactFraction of the base arc array, the next mutation
//     schedules a Compact: one re-finalize folds the overlay into a
//     fresh base CSR and drops dead arcs (edge ids are untouched —
//     tombstones stay in the edge list forever).
//
// Concurrency: between mutations the graph is safe for concurrent
// readers (call Finalize — or perform any adjacency read — before
// sharing). No mutator is safe concurrently with anything; note that
// on a graph carrying churn debt (overlay arcs or tombstones) Adj
// compacts eagerly and therefore counts as a mutator — concurrent
// readers of a churned graph use ForEachArc (see Adj).
type Graph struct {
	n     int
	edges []Edge
	// Base CSR adjacency: arcs[off[v]:off[v+1]] are v's incidences for
	// vertices v < baseN and edges recorded at the last Finalize, in edge
	// insertion order (the order the old per-vertex appends produced).
	off   []int
	arcs  []Arc
	dirty bool

	// Churn state (all zero on a never-churned graph).
	baseN    int     // vertices covered by the base CSR
	deadArc  int     // tombstoned arcs still sitting in the base CSR
	deadM    int     // tombstoned edges (Cap == 0) in the edge list
	ovHead   []int32 // per-vertex overlay chain heads (-1 = none)
	ovTail   []int32
	ovArena  []ovArc
	removed  []bool // nil until the first RemoveVertex
	removedN int

	// OverlayCompactFraction tunes the automatic Compact: a mutation
	// that leaves more than this fraction of the base arc array in
	// overlay chains or tombstoned schedules a re-finalize (0 = 0.25;
	// negative = never compact automatically).
	OverlayCompactFraction float64
}

// New returns an empty graph on n vertices.
func New(n int) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Graph{n: n, dirty: true}
}

// N returns the number of vertices, including removed ones (ids are
// stable; see ActiveN for the live count).
func (g *Graph) N() int { return g.n }

// M returns the number of edges (parallel edges counted individually,
// tombstones included; see LiveM for the live count).
func (g *Graph) M() int { return len(g.edges) }

// Reserve pre-sizes the edge array for m additional AddEdge calls, so
// bulk loaders (graph.Read, the generators) pay one allocation instead
// of append doublings — at n=10⁶ the doubling overshoot alone is
// hundreds of megabytes of transient heap.
func (g *Graph) Reserve(m int) {
	if m <= 0 || cap(g.edges)-len(g.edges) >= m {
		return
	}
	edges := make([]Edge, len(g.edges), len(g.edges)+m)
	copy(edges, g.edges)
	g.edges = edges
}

// LiveM returns the number of live (non-tombstoned) edges.
func (g *Graph) LiveM() int { return len(g.edges) - g.deadM }

// ActiveN returns the number of live (non-removed) vertices.
func (g *Graph) ActiveN() int { return g.n - g.removedN }

// RemovedN returns the number of removed vertices.
func (g *Graph) RemovedN() int { return g.removedN }

// Removed reports whether vertex v has been removed.
func (g *Graph) Removed(v int) bool { return g.removed != nil && g.removed[v] }

// Dead reports whether edge e is a tombstone (deleted).
func (g *Graph) Dead(e int) bool { return g.edges[e].Cap == 0 }

// Churned reports whether the graph carries any tombstoned edges or
// removed vertices — consumers that cannot handle either (the
// congestion-approximator sampler, for one) compact to an active
// subgraph first.
func (g *Graph) Churned() bool { return g.deadM > 0 || g.removedN > 0 }

// Edges returns the underlying edge list, tombstones (Cap == 0)
// included. The slice is shared with the graph (a documentation-only
// contract: callers must not modify it or retain it across AddEdge
// calls). For per-vertex iteration prefer ForEachArc, which cannot leak
// a mutable view and skips tombstones.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the e-th edge.
func (g *Graph) Edge(e int) Edge { return g.edges[e] }

// Cap returns the capacity of edge e (0 for a tombstone).
func (g *Graph) Cap(e int) int64 { return g.edges[e].Cap }

// AddEdge appends an edge u—v with capacity cap and returns its index.
// Self-loops are rejected (the model assumes a simple underlying network;
// multigraph parallelism is allowed). On a finalized graph the new arcs
// land in the CSR delta overlay — O(1), no re-finalize.
func (g *Graph) AddEdge(u, v int, capacity int64) int {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex out of range: %d-%d (n=%d)", u, v, g.n))
	}
	if capacity <= 0 {
		panic(fmt.Sprintf("graph: non-positive capacity %d on %d-%d", capacity, u, v))
	}
	if g.Removed(u) || g.Removed(v) {
		panic(fmt.Sprintf("graph: edge %d-%d touches a removed vertex", u, v))
	}
	e := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, Cap: capacity})
	if g.dirty {
		return e
	}
	g.ovAppend(u, Arc{To: v, E: e})
	g.ovAppend(v, Arc{To: u, E: e})
	g.maybeCompact()
	return e
}

// AddVertex appends a new vertex and returns its id (the previous N).
// The base CSR is untouched; the vertex starts with no incidences.
func (g *Graph) AddVertex() int {
	v := g.n
	g.n++
	if g.removed != nil {
		g.removed = append(g.removed, false)
	}
	return v
}

// DeleteEdge tombstones edge e: its capacity becomes 0, its id stays
// allocated forever, and every iterator skips it from now on. Deleting
// an already-dead edge panics (callers coalesce; see distflow).
func (g *Graph) DeleteEdge(e int) {
	if g.edges[e].Cap == 0 {
		panic(fmt.Sprintf("graph: edge %d already deleted", e))
	}
	g.edges[e].Cap = 0
	g.deadM++
	if !g.dirty {
		// Whether the two arcs sit in the base CSR or the overlay, they
		// are now skip work for every iteration until the next Compact.
		g.deadArc += 2
		g.maybeCompact()
	}
}

// RemoveVertex deactivates v: every live incident edge is tombstoned
// and the vertex is marked removed (its id is never reused). It returns
// the edge ids it tombstoned, in iteration order. Removing an already
// removed vertex panics.
func (g *Graph) RemoveVertex(v int) []int {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graph: vertex %d out of range", v))
	}
	if g.Removed(v) {
		panic(fmt.Sprintf("graph: vertex %d already removed", v))
	}
	var killed []int
	g.ForEachArc(v, func(a Arc) {
		killed = append(killed, a.E)
	})
	for _, e := range killed {
		g.DeleteEdge(e)
	}
	if g.removed == nil {
		g.removed = make([]bool, g.n)
	}
	g.removed[v] = true
	g.removedN++
	return killed
}

// SetCap changes the capacity of edge e. The CSR layout is untouched —
// capacity edits are O(1) and never trigger a Finalize. Tombstoned
// edges cannot be resurrected.
func (g *Graph) SetCap(e int, capacity int64) {
	if capacity <= 0 {
		panic(fmt.Sprintf("graph: non-positive capacity %d on edge %d", capacity, e))
	}
	if g.edges[e].Cap == 0 {
		panic(fmt.Sprintf("graph: SetCap on deleted edge %d", e))
	}
	g.edges[e].Cap = capacity
}

// ovAppend chains one overlay arc onto v's list, preserving insertion
// order.
func (g *Graph) ovAppend(v int, a Arc) {
	for len(g.ovHead) < g.n {
		g.ovHead = append(g.ovHead, -1)
		g.ovTail = append(g.ovTail, -1)
	}
	i := int32(len(g.ovArena))
	g.ovArena = append(g.ovArena, ovArc{a: a, next: -1})
	if t := g.ovTail[v]; t >= 0 {
		g.ovArena[t].next = i
	} else {
		g.ovHead[v] = i
	}
	g.ovTail[v] = i
}

func (g *Graph) ovHeadAt(v int) int32 {
	if v >= len(g.ovHead) {
		return -1
	}
	return g.ovHead[v]
}

// OverlayArcs returns the number of arcs currently living in the delta
// overlay plus the tombstoned arcs still in the base CSR — the churn
// debt the next Compact retires.
func (g *Graph) OverlayArcs() int { return len(g.ovArena) + g.deadArc }

// maybeCompact schedules a re-finalize once the overlay debt crosses
// the threshold. The rebuild itself is deferred to the next adjacency
// access (Finalize), so a mutation burst pays it once.
func (g *Graph) maybeCompact() {
	frac := g.OverlayCompactFraction
	if frac == 0 {
		frac = 0.25
	}
	if frac < 0 {
		return
	}
	if float64(g.OverlayArcs()) > frac*float64(len(g.arcs)+1) {
		g.dirty = true
	}
}

// Compact folds the delta overlay into a fresh base CSR and drops
// tombstoned arcs. Edge ids, vertex ids, and iteration semantics are
// unchanged; only the storage is re-packed. One O(n+m) counting pass.
func (g *Graph) Compact() {
	if len(g.ovArena) > 0 || g.deadArc > 0 || g.baseN < g.n {
		g.dirty = true
	}
	g.Finalize()
}

// Finalize (re)builds the CSR adjacency if edges were added since the
// last build (or a Compact is due). It is called implicitly by every
// adjacency accessor; call it explicitly before sharing the graph
// across goroutines. One counting pass over the edge list, O(n+m); no
// per-vertex allocations. Tombstoned edges contribute no arcs; the
// overlay is folded in and cleared.
func (g *Graph) Finalize() {
	if !g.dirty {
		return
	}
	n := g.n
	if cap(g.off) >= n+1 {
		g.off = g.off[:n+1]
		for i := range g.off {
			g.off[i] = 0
		}
	} else {
		g.off = make([]int, n+1)
	}
	off := g.off
	for _, e := range g.edges {
		if e.Cap == 0 {
			continue
		}
		off[e.U]++
		off[e.V]++
	}
	sum := csr.Offsets(off)
	if cap(g.arcs) >= sum {
		g.arcs = g.arcs[:sum]
	} else {
		g.arcs = make([]Arc, sum)
	}
	// Place arcs in edge order: within each vertex the incidences land
	// in edge-insertion order, matching the old append-based layout.
	for i, e := range g.edges {
		if e.Cap == 0 {
			continue
		}
		g.arcs[off[e.U]] = Arc{To: e.V, E: i}
		off[e.U]++
		g.arcs[off[e.V]] = Arc{To: e.U, E: i}
		off[e.V]++
	}
	csr.Shift(off)
	g.baseN = n
	g.deadArc = 0
	g.ovArena = g.ovArena[:0]
	g.ovHead = g.ovHead[:0]
	g.ovTail = g.ovTail[:0]
	g.dirty = false
}

// Adj returns the incidence list of v: a subslice of the packed CSR arc
// array. The slice is shared; callers must not modify it. On a graph
// with pending overlay arcs or tombstones Adj compacts first so the
// subslice is exact — which makes Adj a MUTATOR in that state: it must
// not run concurrently with any other access until the churn debt is
// retired (call Compact once, single-threaded, before sharing).
// Concurrent readers of a churned graph use ForEachArc, which iterates
// the overlay incrementally and never rebuilds.
func (g *Graph) Adj(v int) []Arc {
	g.Compact()
	return g.arcs[g.off[v]:g.off[v+1]]
}

// ForEachArc calls fn for every live incidence of v without allocating:
// base CSR arcs first (tombstones skipped), then overlay arcs in
// insertion order. It is the preferred neighbor iterator on hot paths
// and the only one that never triggers a Compact.
func (g *Graph) ForEachArc(v int, fn func(Arc)) {
	g.Finalize()
	if v < g.baseN {
		if g.deadArc == 0 {
			for _, a := range g.arcs[g.off[v]:g.off[v+1]] {
				fn(a)
			}
		} else {
			for _, a := range g.arcs[g.off[v]:g.off[v+1]] {
				if g.edges[a.E].Cap > 0 {
					fn(a)
				}
			}
		}
	}
	for i := g.ovHeadAt(v); i >= 0; i = g.ovArena[i].next {
		if a := g.ovArena[i].a; g.edges[a.E].Cap > 0 {
			fn(a)
		}
	}
}

// Degree returns the number of live edge incidences at v (parallel
// edges count; tombstones do not).
func (g *Graph) Degree(v int) int {
	g.Finalize()
	if v < g.baseN && g.deadArc == 0 && len(g.ovArena) == 0 {
		return g.off[v+1] - g.off[v]
	}
	d := 0
	g.ForEachArc(v, func(Arc) { d++ })
	return d
}

// Other returns the endpoint of edge e that is not v.
// It panics if v is not an endpoint of e.
func (g *Graph) Other(e, v int) int {
	ed := g.edges[e]
	switch v {
	case ed.U:
		return ed.V
	case ed.V:
		return ed.U
	default:
		panic(fmt.Sprintf("graph: vertex %d not on edge %d (%d-%d)", v, e, ed.U, ed.V))
	}
}

// Orientation returns +1 if v is the tail (U) of edge e, -1 if v is the
// head (V). Flow f[e] leaves v when Orientation(e,v)*f[e] > 0.
func (g *Graph) Orientation(e, v int) float64 {
	ed := g.edges[e]
	switch v {
	case ed.U:
		return 1
	case ed.V:
		return -1
	default:
		panic(fmt.Sprintf("graph: vertex %d not on edge %d", v, e))
	}
}

// Divergence returns the net outflow at every vertex under flow f
// (len(f) must equal M). Divergence(f)[v] = Σ_{e out of v} f[e] −
// Σ_{e into v} f[e] with respect to each edge's fixed orientation.
// Tombstoned edges participate verbatim; the solver contract keeps
// their flow exactly 0.
func (g *Graph) Divergence(f []float64) []float64 {
	return g.DivergenceInto(f, make([]float64, g.n))
}

// DivergenceInto computes Divergence(f) into div (len N) and returns it:
// ResidualInto without a demand.
func (g *Graph) DivergenceInto(f, div []float64) []float64 {
	g.ResidualInto(f, nil, div, nil)
	return div
}

// ResidualInto writes the divergence div = Divergence(f) (len N) and,
// when r is non-nil, the residual demand r = bs − div (bs and r len N).
// The accumulation is organized per vertex over its incidence list —
// each entry is written by exactly one vertex, so the sweep runs
// chunk-parallel on the shared worker pool, and the per-vertex addend
// order is fixed by the adjacency structure regardless of worker count.
func (g *Graph) ResidualInto(f, bs, div, r []float64) {
	if len(f) != len(g.edges) {
		panic("graph: flow length mismatch")
	}
	if len(div) != g.n || r != nil && (len(r) != g.n || len(bs) != g.n) {
		panic("graph: divergence length mismatch")
	}
	g.Finalize()
	if par.Sequential(g.n) {
		g.ResidualRange(f, bs, div, r, 0, g.n)
		return
	}
	par.For(g.n, func(lo, hi int) {
		g.ResidualRange(f, bs, div, r, lo, hi)
	})
}

// ResidualRange is ResidualInto's kernel over vertices [lo,hi): base
// CSR arcs plus the overlay chains, allocation-free. It reads the graph
// without finalizing it, so goroutines may run it concurrently on a
// finalized graph (internal/shard runs it on each shard's vertices).
func (g *Graph) ResidualRange(f, bs, div, r []float64, lo, hi int) {
	off, arcs, baseN := g.off, g.arcs, g.baseN
	for v := lo; v < hi; v++ {
		s := 0.0
		if v < baseN {
			for _, a := range arcs[off[v]:off[v+1]] {
				if g.edges[a.E].U == v {
					s += f[a.E]
				} else {
					s -= f[a.E]
				}
			}
		}
		for i := g.ovHeadAt(v); i >= 0; i = g.ovArena[i].next {
			a := g.ovArena[i].a
			if g.edges[a.E].U == v {
				s += f[a.E]
			} else {
				s -= f[a.E]
			}
		}
		div[v] = s
		if r != nil {
			r[v] = bs[v] - s
		}
	}
}

// GradientInto writes the edge gradient of the solver's potential,
// grad[e] = w1[e]·invCap[e] + ta·(π[V] − π[U]) — the C⁻¹-scaled
// soft-max gradient w1 minus ta·Bᵀπ for node potentials π (len N) — and
// returns δ = Σ_e cap_e·|grad[e]|. w1, invCap and grad have len M. The
// sum runs chunk-parallel on the shared worker pool in par.Sum's fixed
// order.
func (g *Graph) GradientInto(w1, invCap []float64, ta float64, pi, grad []float64) float64 {
	if m := len(g.edges); len(w1) != m || len(invCap) != m || len(grad) != m {
		panic("graph: gradient length mismatch")
	}
	if len(pi) != g.n {
		panic("graph: potential length mismatch")
	}
	return par.Sum(len(g.edges), func(lo, hi int) float64 {
		return g.GradientRange(w1, invCap, ta, pi, grad, lo, hi)
	})
}

// GradientRange is GradientInto's kernel over edges [lo,hi), returning
// the range's partial of δ.
func (g *Graph) GradientRange(w1, invCap []float64, ta float64, pi, grad []float64, lo, hi int) float64 {
	d := 0.0
	for e := lo; e < hi; e++ {
		ed := g.edges[e]
		gr := w1[e]*invCap[e] + ta*(pi[ed.V]-pi[ed.U])
		grad[e] = gr
		d += float64(ed.Cap) * math.Abs(gr)
	}
	return d
}

// MaxCongestion returns max_e |f[e]|/cap(e), the objective of problem (1)
// in the paper, over live edges. It returns 0 for a graph with no edges.
func (g *Graph) MaxCongestion(f []float64) float64 {
	if len(f) != len(g.edges) {
		panic("graph: flow length mismatch")
	}
	m := 0.0
	for e, ed := range g.edges {
		if ed.Cap == 0 {
			continue
		}
		c := abs(f[e]) / float64(ed.Cap)
		if c > m {
			m = c
		}
	}
	return m
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// firstActive returns the lowest non-removed vertex (-1 if none).
func (g *Graph) firstActive() int {
	if g.removedN == 0 {
		if g.n == 0 {
			return -1
		}
		return 0
	}
	for v := 0; v < g.n; v++ {
		if !g.removed[v] {
			return v
		}
	}
	return -1
}

// Connected reports whether the live subgraph — non-removed vertices
// under non-tombstoned edges — is connected (true for ≤ 1 active
// vertex).
func (g *Graph) Connected() bool {
	active := g.ActiveN()
	if active <= 1 {
		return true
	}
	g.Finalize()
	root := g.firstActive()
	seen := make([]bool, g.n)
	stack := []int{root}
	seen[root] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g.ForEachArc(v, func(a Arc) {
			if !seen[a.To] {
				seen[a.To] = true
				count++
				stack = append(stack, a.To)
			}
		})
	}
	return count == active
}

// BFS returns hop distances from root over live edges (unreachable —
// including removed — vertices get -1) and the parent edge index of
// each vertex in a BFS tree (-1 for root and unreachable vertices).
func (g *Graph) BFS(root int) (dist []int, parentEdge []int) {
	dist = make([]int, g.n)
	parentEdge = make([]int, g.n)
	for i := range dist {
		dist[i] = -1
		parentEdge[i] = -1
	}
	dist[root] = 0
	g.Finalize()
	queue := []int{root}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.ForEachArc(v, func(a Arc) {
			if dist[a.To] < 0 {
				dist[a.To] = dist[v] + 1
				parentEdge[a.To] = a.E
				queue = append(queue, a.To)
			}
		})
	}
	return dist, parentEdge
}

// Eccentricity returns the maximum hop distance from v to any reachable
// vertex.
func (g *Graph) Eccentricity(v int) int {
	dist, _ := g.BFS(v)
	ecc := 0
	for _, d := range dist {
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Diameter returns the exact hop diameter. It runs a BFS from every
// vertex (O(n·m)); intended for the graph sizes used in tests and
// benchmarks. Disconnected graphs return the maximum eccentricity within
// components.
func (g *Graph) Diameter() int {
	d := 0
	for v := 0; v < g.n; v++ {
		if g.Removed(v) {
			continue
		}
		if e := g.Eccentricity(v); e > d {
			d = e
		}
	}
	return d
}

// DiameterApprox returns a 2-approximation of the hop diameter using a
// double BFS sweep (exact on trees), starting from the first active
// vertex.
func (g *Graph) DiameterApprox() int {
	root := g.firstActive()
	if root < 0 {
		return 0
	}
	dist, _ := g.BFS(root)
	far := root
	for v, d := range dist {
		if d > dist[far] {
			far = v
		}
	}
	return g.Eccentricity(far)
}

// MaxCap returns the largest edge capacity (0 if there are no edges).
func (g *Graph) MaxCap() int64 {
	var m int64
	for _, e := range g.edges {
		if e.Cap > m {
			m = e.Cap
		}
	}
	return m
}

// TotalCap returns the sum of all edge capacities.
func (g *Graph) TotalCap() int64 {
	var s int64
	for _, e := range g.edges {
		s += e.Cap
	}
	return s
}

// Clone returns a deep copy of the graph, churn state (tombstones,
// removed vertices) included. The copy's CSR is rebuilt lazily.
func (g *Graph) Clone() *Graph {
	h := &Graph{
		n:                      g.n,
		edges:                  append([]Edge(nil), g.edges...),
		dirty:                  true,
		deadM:                  g.deadM,
		removedN:               g.removedN,
		OverlayCompactFraction: g.OverlayCompactFraction,
	}
	if g.removed != nil {
		h.removed = append([]bool(nil), g.removed...)
	}
	return h
}

// Validate checks structural invariants and returns an error describing
// the first violation found, or nil. Tombstoned edges must carry
// capacity 0 and no arcs (after a Compact) or only skipped arcs;
// removed vertices must have no live incidences.
func (g *Graph) Validate() error {
	g.Finalize()
	if len(g.off) != g.baseN+1 {
		return errors.New("graph: CSR offset table size mismatch")
	}
	deg := make([]int, g.n)
	deadM := 0
	for i, e := range g.edges {
		if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n {
			return fmt.Errorf("graph: edge %d endpoints out of range", i)
		}
		if e.U == e.V {
			return fmt.Errorf("graph: edge %d is a self-loop", i)
		}
		if e.Cap < 0 {
			return fmt.Errorf("graph: edge %d has capacity %d", i, e.Cap)
		}
		if e.Cap == 0 {
			deadM++
			continue
		}
		deg[e.U]++
		deg[e.V]++
	}
	if deadM != g.deadM {
		return fmt.Errorf("graph: tombstone count %d, tracked %d", deadM, g.deadM)
	}
	removedN := 0
	for v := 0; v < g.n; v++ {
		if g.Removed(v) {
			removedN++
			if deg[v] != 0 {
				return fmt.Errorf("graph: removed vertex %d has %d live incidences", v, deg[v])
			}
		}
		got := 0
		bad := error(nil)
		g.ForEachArc(v, func(a Arc) {
			got++
			if bad != nil {
				return
			}
			if a.E < 0 || a.E >= len(g.edges) {
				bad = fmt.Errorf("graph: vertex %d has arc with bad edge index %d", v, a.E)
				return
			}
			e := g.edges[a.E]
			if (e.U != v || e.V != a.To) && (e.V != v || e.U != a.To) {
				bad = fmt.Errorf("graph: vertex %d arc to %d inconsistent with edge %d", v, a.To, a.E)
			}
		})
		if bad != nil {
			return bad
		}
		if got != deg[v] {
			return fmt.Errorf("graph: vertex %d degree mismatch: adj=%d edges=%d", v, got, deg[v])
		}
	}
	if removedN != g.removedN {
		return fmt.Errorf("graph: removed count %d, tracked %d", removedN, g.removedN)
	}
	return nil
}
