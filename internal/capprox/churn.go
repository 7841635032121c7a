package capprox

// Topology churn: patch the sampled congestion approximator through
// structural edits — edge inserts/deletes, vertex adds/removes —
// instead of resampling every tree (DESIGN.md §8).
//
// The machinery extends §7's dirty-path capacity updates from capacity
// space to structure space using the same Lemma 8.3 tree-flow identity:
//
//   - Deleting edge (u,v) removes its cap(e) units from the tree path
//     u→LCA(u,v)→v — a dirty-path delta of −cap(e).
//   - Inserting edge (u,v) routes its capacity along the existing tree
//     path — a delta of +cap(e). The tree topology is held fixed; only
//     the loads (exact cut capacities) and virtual capacities move.
//   - A new vertex enters every sampled tree as a leaf under a
//     deterministic anchor (the other endpoint of its heaviest link,
//     earliest on ties — the tree then routes the leaf along its
//     dominant edge); its subtree cut is exactly its incident
//     capacity, which the insert deltas of its links build up from
//     zero.
//   - A removed vertex stays in every tree as a capacity-less Steiner
//     point: its incident edges are deleted (driving the crossing cuts
//     down by the usual deltas), and any slot whose cut loses every
//     live edge gets scale 0, excluding its row from R.
//
// Exact cut capacities therefore remain bit-identical to a full
// TreeFlow re-sweep in the integer-capacity regime; the virtual
// capacities drift the same way §7's capacity edits drift, and the
// honestly re-measured α drives the caller's patch-vs-resample rule:
// individual trees degraded past the rebuild threshold are resampled
// from the compacted active subgraph (ResampleTrees) — a per-tree cost
// instead of a full Build.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"distflow/internal/congest"
	"distflow/internal/graph"
	"distflow/internal/par"
	"distflow/internal/vtree"
)

// tfScratch pools TreeFlow/LCA scratch across trees and workers: the
// cut-capacity phase sweeps every tree over the same vertex count, so
// the lifting tables and delta buffers are perfectly reusable instead
// of allocated fresh per tree (ROADMAP item; the AllocsPerRun guard is
// TestTreeFlowPooledAllocs).
var tfScratch = sync.Pool{New: func() any { return new(vtree.TreeFlowScratch) }}

// treeFlowPooled runs one TreeFlow sweep against pooled scratch and
// copies the loads into dst (nil = allocate). Values are bit-identical
// to t.TreeFlow's; beyond dst the call is allocation-free once the pool
// is warm.
func treeFlowPooled(t *vtree.VTree, pairs []vtree.EdgeEndpoint, dst []float64) []float64 {
	sc := tfScratch.Get().(*vtree.TreeFlowScratch)
	load := t.TreeFlowWS(pairs, sc)
	if dst == nil {
		dst = make([]float64, len(load))
	}
	copy(dst, load)
	tfScratch.Put(sc)
	return dst
}

// livePairs materializes the graph's edge list for TreeFlow. Tombstones
// ride along with capacity 0 — they route nothing — so edge ids keep
// their positions and the list is O(M) to build.
func livePairs(g *graph.Graph) []vtree.EdgeEndpoint {
	pairs := make([]vtree.EdgeEndpoint, g.M())
	for i, e := range g.Edges() {
		pairs[i] = vtree.EdgeEndpoint{U: e.U, V: e.V, Cap: float64(e.Cap)}
	}
	return pairs
}

// --- compaction: sampling on a churned graph ---

// compactView maps a churned graph onto its active subgraph — removed
// vertices dropped, tombstoned edges dropped, ids renumbered densely —
// so the tree sampler (which requires a connected graph of live
// vertices) can run, and expands sampled trees back to the full id
// space.
type compactView struct {
	g       *graph.Graph // the compacted active subgraph (g itself when unchurned)
	toFull  []int        // compact id → full id (nil = identity)
	fullN   int
	removed []int // full ids of removed vertices
}

func newCompactView(g *graph.Graph) *compactView {
	if !g.Churned() {
		return &compactView{g: g, fullN: g.N()}
	}
	cg := graph.New(g.ActiveN())
	toFull := make([]int, 0, g.ActiveN())
	toCompact := make([]int, g.N())
	var removed []int
	for v := 0; v < g.N(); v++ {
		if g.Removed(v) {
			toCompact[v] = -1
			removed = append(removed, v)
			continue
		}
		toCompact[v] = len(toFull)
		toFull = append(toFull, v)
	}
	for _, e := range g.Edges() {
		if e.Cap == 0 {
			continue
		}
		cg.AddEdge(toCompact[e.U], toCompact[e.V], e.Cap)
	}
	cg.Finalize()
	return &compactView{g: cg, toFull: toFull, fullN: g.N(), removed: removed}
}

// expandTree lifts a tree sampled on the compact graph to the full id
// space. Removed vertices hang off the root as unit-capacity leaves:
// they carry no demand and their rows are excluded via scale 0, so they
// are pure bookkeeping that keeps every per-vertex array dense.
func (cv *compactView) expandTree(tc *vtree.VTree) (*vtree.VTree, error) {
	if cv.toFull == nil {
		return tc, nil
	}
	parent := make([]int, cv.fullN)
	capv := make([]float64, cv.fullN)
	root := cv.toFull[tc.Root]
	for v := range parent {
		parent[v] = root
		capv[v] = 1
	}
	for v := 0; v < tc.N(); v++ {
		f := cv.toFull[v]
		if v == tc.Root {
			continue
		}
		parent[f] = cv.toFull[tc.Parent[v]]
		capv[f] = tc.Cap[v]
	}
	parent[root] = -1
	capv[root] = 0
	return vtree.New(root, parent, capv)
}

// buildChurned runs Build on the compacted active subgraph and expands
// the result to the full id space (Build delegates here whenever the
// graph carries tombstones or removed vertices, so the rebuild fallback
// of a long-lived router needs no special casing).
func buildChurned(ctx context.Context, g *graph.Graph, cfg Config, rng *rand.Rand) (*Approximator, error) {
	cv := newCompactView(g)
	ac, err := BuildCtx(ctx, cv.g, cfg, rng)
	if err != nil {
		return nil, err
	}
	n := g.N()
	a := &Approximator{
		Alpha:        ac.Alpha,
		AlphaLow:     ac.AlphaLow,
		Ledger:       ac.Ledger,
		Levels:       ac.Levels,
		Stats:        ac.Stats,
		evalSchedule: ac.evalSchedule,
		diameter:     ac.diameter,
		exactRows:    ac.exactRows,
	}
	for k, tc := range ac.Trees {
		tf, err := cv.expandTree(tc)
		if err != nil {
			return nil, err
		}
		cc := make([]float64, n)
		scale := make([]float64, n)
		for v := 0; v < tc.N(); v++ {
			f := cv.toFull[v]
			cc[f] = ac.CutCap[k][v]
			scale[f] = ac.Scale[k][v]
		}
		m := ac.treeMax[k]
		if m.hiArg >= 0 {
			m.hiArg = cv.toFull[m.hiArg]
		}
		if m.loArg >= 0 {
			m.loArg = cv.toFull[m.loArg]
		}
		a.Trees = append(a.Trees, tf)
		a.CutCap = append(a.CutCap, cc)
		a.Scale = append(a.Scale, scale)
		a.treeMax = append(a.treeMax, m)
	}
	return a, nil
}

// --- dirty-path topology updates ---

// NewVertex names one vertex a topology batch added: its id (the graph
// assigns n, n+1, … in batch order) and the anchor vertex it hangs off
// as a leaf in every sampled tree (deterministically the other endpoint
// of its heaviest link, earliest on ties).
type NewVertex struct {
	ID, Anchor int
}

// TopoDelta describes one batch of structural edits that the caller has
// already applied to the graph: the vertices it added, the vertices it
// removed, and every edge insert (+cap) / delete (−cap) as a path delta
// in the full id space. Link edges of added vertices appear as ordinary
// insert deltas — the leaf's cut capacity builds up from zero.
type TopoDelta struct {
	NewVertices []NewVertex
	Deltas      []CapDelta
	Removed     []int
}

// empty reports a batch with nothing to do.
func (d *TopoDelta) empty() bool {
	return len(d.NewVertices) == 0 && len(d.Deltas) == 0 && len(d.Removed) == 0
}

// shiftRatio measures how far a cut moved multiplicatively: old→new of
// the same sign-regime gives max(new/old, old/new); a cut appearing or
// vanishing is an infinite shift; a cut staying empty is no shift.
func shiftRatio(oldV, newV float64) float64 {
	if oldV <= 0 && newV <= 0 {
		return 1
	}
	if oldV <= 0 || newV <= 0 {
		return math.Inf(1)
	}
	if newV > oldV {
		return newV / oldV
	}
	return oldV / newV
}

// patchTree applies the accumulated per-vertex path deltas to tree k's
// cut capacities, virtual capacities, and row scalings, maintaining the
// tree's distortion extrema. Shared by UpdateCapacities (capacity
// edits) and UpdateTopology (structural edits); in the integer-capacity
// regime the result is bit-identical to a full re-sweep.
//
// The returned shift is the largest multiplicative change any
// pre-existing cut experienced: UpdateTopology's structural-degradation
// signal. Slots ≥ freshFrom (new leaves, whose cuts are exact by
// construction) and slots marked in skipShift (vertices the batch
// removed — their rows are being retired, not reshaped) are excluded.
// Callers that don't watch the signal pass freshFrom ≥ N, nil skipShift
// and discard it.
func (a *Approximator) patchTree(k int, cfg Config, dedits []vtree.DeltaEdit, freshFrom int, skipShift []bool) (shift float64) {
	t := a.Trees[k]
	cc := a.CutCap[k]
	scale := a.Scale[k]
	shift = 1
	dirty, delta := t.PathDeltas(dedits, &a.updWS[k])
	for _, v := range dirty {
		d := delta[v]
		ccv := cc[v] + d
		if v < freshFrom && (skipShift == nil || !skipShift[v]) {
			if s := shiftRatio(cc[v], ccv); s > shift {
				shift = s
			}
		}
		nv := t.Cap[v] + d
		if nv <= 0 {
			nv = ccv
			if nv <= 0 {
				// The cut lost its last live edge (an all-removed
				// subtree). Keep a unit sentinel so tree sweeps stay
				// finite; the row is excluded below via scale 0.
				nv = 1
			}
		}
		t.Cap[v] = nv
		cc[v] = ccv
		if ccv <= 0 {
			scale[v] = 0
		} else if cfg.ExactCuts {
			scale[v] = ccv
		} else {
			scale[v] = nv
		}
	}
	// Maintain the tree's distortion extrema. If the previous argmax
	// slot was edited its ratio may have shrunk, leaving the stored
	// maximum stale — rescan; otherwise the non-dirty maximum is
	// exactly the stored one and only dirty ratios can exceed it.
	m := a.treeMax[k]
	stale := false
	for _, v := range dirty {
		if v == m.hiArg || v == m.loArg {
			stale = true
			break
		}
	}
	if stale {
		a.treeMax[k] = measureTreeRatios(t, cc)
		return shift
	}
	for _, v := range dirty {
		if cc[v] <= 0 {
			continue
		}
		if r := t.Cap[v] / cc[v]; r > m.hi {
			m.hi = r
			m.hiArg = v
		}
		if r := cc[v] / t.Cap[v]; r > m.lo {
			m.lo = r
			m.loArg = v
		}
	}
	a.treeMax[k] = m
	return shift
}

// UpdateTopology refreshes the approximator in place after the given
// structural edits were applied to g, keeping (and merely extending)
// every sampled tree topology. Per tree — tree-parallel,
// deterministically — the batch's new vertices are appended as leaves
// under their anchors, and every edge insert/delete lands as a ±cap
// dirty-path delta along the existing tree path between its endpoints
// (the Lemma 8.3 identity, exactly as UpdateCapacities). A tree whose
// summed edit-path length exceeds cfg.UpdateDirtyFraction × (n+m)
// falls back to the full TreeFlow re-sweep; either way the exact cut
// capacities match a full re-sweep bit for bit in the integer regime.
//
// α is re-measured from the maintained per-tree extrema, and each
// tree's cut-shift factor — the largest multiplicative change any of
// its pre-existing cuts experienced — is measured alongside. The two
// signals feed the caller's patch-vs-resample rule: α catches virtual
// capacities drifting away from the cuts, while the shift factor
// catches the failure α is blind to — a batch that reshapes the cut
// landscape (say, a new vertex whose links create a min cut no frozen
// tree contains) leaves every cap_T/cap_G ratio healthy yet makes the
// sampled family stale as a cut sketch. Trees whose shift exceeds
// cfg.CutShiftResample are returned in shifted (ascending) for
// individual resampling. The cached hop diameter is invalidated:
// topology edits can change it, unlike capacity edits.
//
// The counts report how many trees took the dirty path and how many
// fell back to a full re-sweep. Not safe concurrently with
// ApplyR/ApplyRT/PotentialRT on the same approximator.
func (a *Approximator) UpdateTopology(g *graph.Graph, cfg Config, d TopoDelta) (dirtyTrees, sweptTrees int, shifted []int) {
	if d.empty() {
		return 0, 0, nil
	}
	if len(a.treeMax) != len(a.Trees) {
		// Hand-assembled approximator: establish the extrema first.
		a.remeasure()
	}
	grow := len(d.NewVertices)
	n := g.N()
	// Extend every tree by the batch's new leaves (tree-parallel; the
	// cached LCA tables extend in O(log n) per leaf). Cut and virtual
	// capacities start at 0 and are built up by the link deltas below.
	par.DoSized(len(a.Trees), n, func(k int) {
		t := a.Trees[k]
		for _, nv := range d.NewVertices {
			if id := t.AddLeaf(nv.Anchor, 0); id != nv.ID {
				panic(fmt.Sprintf("capprox: tree %d vertex ids diverged: leaf %d, graph %d", k, id, nv.ID))
			}
		}
		if grow > 0 {
			a.CutCap[k] = append(a.CutCap[k], make([]float64, grow)...)
			a.Scale[k] = append(a.Scale[k], make([]float64, grow)...)
		}
	})
	dedits := make([]vtree.DeltaEdit, len(d.Deltas))
	for i, ed := range d.Deltas {
		dedits[i] = vtree.DeltaEdit{U: ed.U, V: ed.V, Diff: ed.Diff}
	}
	if len(a.updWS) != len(a.Trees) {
		a.updWS = make([]vtree.DeltaScratch, len(a.Trees))
	}
	frac := cfg.UpdateDirtyFraction
	if frac == 0 {
		frac = 0.25
	}
	work := make([]int, len(a.Trees))
	par.DoSized(len(a.Trees), n, func(k int) {
		work[k] = a.Trees[k].PathWork(dedits)
	})
	budget := frac * float64(n+g.M())
	sweep := make([]bool, len(a.Trees))
	for k := range a.Trees {
		if frac < 0 || float64(work[k]) > budget {
			sweep[k] = true
			sweptTrees++
		}
	}
	dirtyTrees = len(a.Trees) - sweptTrees
	var pairs []vtree.EdgeEndpoint
	if sweptTrees > 0 {
		pairs = livePairs(g)
	}
	// Pre-existing slots start below the batch's first new vertex id;
	// the new leaves' own cuts are exact by construction and excluded
	// from the shift measure.
	freshFrom := n
	if len(d.NewVertices) > 0 {
		freshFrom = d.NewVertices[0].ID
	}
	var skipShift []bool
	if len(d.Removed) > 0 {
		skipShift = make([]bool, n)
		for _, v := range d.Removed {
			skipShift[v] = true
		}
	}
	shifts := make([]float64, len(a.Trees))
	par.DoSized(len(a.Trees), n, func(k int) {
		if sweep[k] {
			a.treeMax[k], shifts[k] = refreshTree(a.Trees[k], pairs, a.CutCap[k], a.Scale[k], cfg, freshFrom, skipShift)
			return
		}
		shifts[k] = a.patchTree(k, cfg, dedits, freshFrom, skipShift)
	})
	a.combineAlpha()
	shiftBound := cfg.CutShiftResample
	if shiftBound == 0 {
		shiftBound = 3
	}
	if shiftBound > 0 {
		for k, s := range shifts {
			if s > shiftBound {
				shifted = append(shifted, k)
			}
		}
	}
	// Topology edits can change the hop diameter; drop the cached value
	// and re-measure once for the round charges (one O(n+m) double-BFS
	// per batch — the same cost every query already pays).
	a.diameter = 0
	diameter := a.buildDiameter(g)
	sq := int64(math.Ceil(math.Sqrt(float64(n))))
	for k := range a.Trees {
		c := diameter + int64(work[k])
		if sweep[k] || c > diameter+sq {
			c = diameter + sq
		}
		a.Ledger.ChargeAccounted("update-topology", c)
	}
	return dirtyTrees, sweptTrees, shifted
}

// DegradedTrees returns, in tree order, the trees whose measured cut
// overestimation exceeds threshold — the per-tree resample candidates
// of the patch-vs-resample rule.
func (a *Approximator) DegradedTrees(threshold float64) []int {
	var out []int
	for k, m := range a.treeMax {
		if m.hi > threshold {
			out = append(out, k)
		}
	}
	return out
}

// TreeAlpha returns tree k's measured cut overestimation.
func (a *Approximator) TreeAlpha(k int) float64 { return a.treeMax[k].hi }

// ResampleTrees replaces the trees at indices ks (ascending) with fresh
// samples from the recursive distribution, drawn on the compacted
// active subgraph with the provided per-tree seeds, and recomputes
// their exact cut capacities and row scalings. Only the named trees
// change; everything else — including every other tree's dirty-path
// scratch — stays put, so resampling one degraded tree costs one
// tree's share of a full Build instead of the whole thing.
//
// Determinism: the caller draws seeds before any parallel region (the
// router derives them from its seed and a per-batch counter), and the
// per-tree sampling runs from independent PRNGs exactly as Build's
// does, so the outcome is a pure function of (graph, cfg, ks, seeds)
// at every worker count.
func (a *Approximator) ResampleTrees(g *graph.Graph, cfg Config, ks []int, seeds []int64) error {
	return a.ResampleTreesCtx(context.Background(), g, cfg, ks, seeds)
}

// ResampleTreesCtx is ResampleTrees under a context. A done context
// aborts with the context's error before anything is installed — the
// all-or-nothing install below already guarantees an errored resample
// leaves the approximator serving its previous trees.
func (a *Approximator) ResampleTreesCtx(ctx context.Context, g *graph.Graph, cfg Config, ks []int, seeds []int64) error {
	if len(ks) == 0 {
		return nil
	}
	if len(seeds) != len(ks) {
		return fmt.Errorf("capprox: %d resample seeds for %d trees", len(seeds), len(ks))
	}
	if len(a.updWS) != len(a.Trees) {
		a.updWS = make([]vtree.DeltaScratch, len(a.Trees))
	}
	if len(a.treeMax) != len(a.Trees) {
		a.remeasure()
	}
	start := time.Now() //distflow:allow detrand build-phase timing stat only; never feeds results
	cv := newCompactView(g)
	diameter := cv.g.DiameterApprox()
	n := g.N()
	type sampled struct {
		t       *vtree.VTree
		levels  []int
		ledger  *congest.Ledger
		seconds float64
		err     error
	}
	outs := make([]sampled, len(ks))
	par.Do(len(ks), func(i int) {
		led := congest.NewLedger()
		treeStart := time.Now() //distflow:allow detrand build-phase timing stat only; never feeds results
		var ph samplePhases
		tc, levels, err := sampleTree(ctx, cv.g, cfg, diameter, led, rand.New(rand.NewSource(seeds[i])), &ph)
		if err == nil {
			tc, err = cv.expandTree(tc)
		}
		outs[i] = sampled{t: tc, levels: levels, ledger: led, seconds: time.Since(treeStart).Seconds(), err: err} //distflow:allow detrand build-phase timing stat only; never feeds results
	})
	// Scan every sampling error before installing anything: a partial
	// install would pair an old row scaling with a new tree topology,
	// and the caller's error path keeps serving the approximator.
	for i, k := range ks {
		if outs[i].err != nil {
			return fmt.Errorf("capprox: resample tree %d: %w", k, outs[i].err)
		}
	}
	for i, k := range ks {
		a.Trees[k] = outs[i].t
		a.Levels[k] = outs[i].levels
		a.Ledger.Add(outs[i].ledger)
		a.Stats.SampleSeconds += outs[i].seconds
	}
	pairs := livePairs(g)
	par.DoSized(len(ks), n, func(i int) {
		k := ks[i]
		t := a.Trees[k]
		cc := treeFlowPooled(t, pairs, make([]float64, n))
		scale := make([]float64, n)
		for v := 0; v < n; v++ {
			if v == t.Root || cc[v] <= 0 {
				continue
			}
			if cfg.ExactCuts {
				scale[v] = cc[v]
			} else {
				scale[v] = t.Cap[v]
			}
		}
		a.CutCap[k] = cc
		a.Scale[k] = scale
		a.treeMax[k] = measureTreeRatios(t, cc)
		a.updWS[k] = vtree.DeltaScratch{}
	})
	a.combineAlpha()
	a.Stats.TotalSeconds += time.Since(start).Seconds() //distflow:allow detrand build-phase timing stat only; never feeds results
	return nil
}
