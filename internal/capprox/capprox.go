// Package capprox builds the paper's congestion approximator: a sample
// of O(log n) virtual rooted spanning trees drawn from the recursively
// constructed distribution of Theorem 8.10, assembled level by level
// from Madry j-tree steps (internal/jtree) on cluster graphs.
//
// Each sampled tree T satisfies, up to the measured distortion α:
//
//	cap_G(cut) ≤ cap_T(cut) ≤ α·cap_G(cut)   for subtree-induced cuts,
//
// and by Lemma 3.3 the O(log n) samples together form an O(α²)-
// congestion approximator R whose rows are the subtree cuts. R and Rᵀ
// are applied with one O(n) sweep per tree (internal/vtree); the
// distributed cost of every construction and evaluation phase is
// charged to a congest.Ledger using the paper's own schedules
// (Lemmas 5.1, 8.3, 8.8, Corollary 9.3) instantiated with measured
// depths and counts.
package capprox

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"distflow/internal/cluster"
	"distflow/internal/congest"
	"distflow/internal/graph"
	"distflow/internal/jtree"
	"distflow/internal/numutil"
	"distflow/internal/par"
	"distflow/internal/sparsify"
	"distflow/internal/vtree"
)

// Config tunes the construction. Zero values select the paper's
// parameters with practical constants.
type Config struct {
	// Trees is the number of sampled virtual trees (default ⌈log₂ n⌉+1,
	// the Lemma 3.3 sample size).
	Trees int
	// Beta is the per-level contraction factor β (default
	// 2^{(log₂n)^{3/4}}, §8.4).
	Beta float64
	// CoreThreshold stops the distributed recursion (default
	// max(8, ⌈2√n⌉) ≈ the paper's n^{1/2+o(1)}).
	CoreThreshold int
	// Candidates is the number of multiplicative-weights candidates per
	// level from which one j-tree is sampled (default 3; theory Õ(β)).
	Candidates int
	// UseSparsifier applies the cut sparsifier to dense cluster graphs
	// between levels (§8.4 step 1); ablation A4.
	UseSparsifier bool
	// ExactCuts scales R's rows by the exact G-cut capacities instead of
	// the virtual tree capacities (tightening ablation; the distributed
	// algorithm uses the virtual capacities).
	ExactCuts bool
	// UpdateDirtyFraction tunes the per-tree fallback of
	// UpdateCapacities: a tree whose summed edit-path length exceeds
	// this fraction of n+m (the full sweep's linear cost) abandons the
	// dirty path and re-sweeps in full (0 = 0.25; negative = every tree
	// full-sweeps on every update — the pre-dirty-path behavior and the
	// property-test oracle).
	UpdateDirtyFraction float64
	// CutShiftResample tunes UpdateTopology's structural-degradation
	// detector: a tree one of whose pre-existing subtree cuts a batch
	// multiplies (or divides) by more than this factor is reported for
	// resampling — its sampled topology was drawn for a cut landscape
	// that no longer exists, a quality loss the cap_T/cap_G distortion
	// α cannot see (DESIGN.md §8). 0 = 3 — past the distortion slack
	// the sampler's own construction tolerates; negative disables the
	// detector.
	CutShiftResample float64
	// Step forwards to the per-level construction.
	Step jtree.Config
}

// BuildStats breaks the wall-clock cost of one Build down by phase, so
// build-path regressions are attributable (cmd/bench -build records
// them). Tree-parallel phases (sampling, sparsification, cut
// capacities) record summed per-tree durations, i.e. CPU seconds —
// equal to wall clock on one worker, larger than wall clock on many;
// AlphaSeconds and TotalSeconds are wall clock.
type BuildStats struct {
	// SampleSeconds is the total tree-sampling time (all j-tree levels,
	// including candidate evaluation; includes SparsifySeconds).
	SampleSeconds float64 `json:"sample_seconds"`
	// SparsifySeconds is the cluster-graph sparsification share of
	// sampling (0 unless Config.UseSparsifier).
	SparsifySeconds float64 `json:"sparsify_seconds"`
	// RaceSeconds is the SplitGraph-race share of sampling (summed over
	// candidates and trees, CPU seconds like SampleSeconds) — the
	// quantity the bucket-queue race targets.
	RaceSeconds float64 `json:"race_seconds"`
	// CutCapSeconds is the exact subtree-cut capacity phase (one
	// TreeFlow sweep per tree).
	CutCapSeconds float64 `json:"cutcap_seconds"`
	// AlphaSeconds is the distortion measurement plus the Cor. 9.3
	// evaluation-schedule draw (sequential, wall clock).
	AlphaSeconds float64 `json:"alpha_seconds"`
	// TotalSeconds is the wall clock of the whole Build call.
	TotalSeconds float64 `json:"total_seconds"`
}

// Approximator is the sampled congestion approximator R.
type Approximator struct {
	// Trees are the sampled virtual rooted spanning trees on V(G); the
	// capacity of edge (v,parent) is the virtual capacity cap_T.
	Trees []*vtree.VTree
	// CutCap[k][v] is the exact capacity of the G-cut induced by tree
	// k's edge (v,parent) (computed via the Fig. 2 tree-flow identity).
	CutCap [][]float64
	// Scale[k][v] is the row scaling actually used by R (virtual or
	// exact per Config.ExactCuts).
	Scale [][]float64
	// Alpha is the measured per-tree cut overestimation
	// max_{k,v} cap_T / cap_G ≥ 1.
	Alpha float64
	// AlphaLow is the measured underestimation max_{k,v} cap_G / cap_T
	// (the O(1)-embedding slack of Lemmas 8.6/8.7; 1 when cap_T always
	// dominates).
	AlphaLow float64
	// Ledger carries the charged construction rounds.
	Ledger *congest.Ledger
	// Levels records the cluster-graph sizes of the sampled hierarchy
	// (one history per tree).
	Levels [][]int
	// Stats carries the per-phase build timing breakdown.
	Stats BuildStats

	// evalSchedule is the measured Corollary 9.3 cost of one R (or Rᵀ)
	// application: per tree, a Lemma 8.2 decomposition is drawn and the
	// convergecast is charged as 2·(component depth) for the intra-
	// component solves plus D + #components for pipelining the component
	// summaries over the BFS tree.
	evalSchedule int64

	// treeMax maintains, per tree, the maximum distortion ratios and
	// their argmax slots. Alpha/AlphaLow are the tree-order maxima of
	// these; dirty-path updates keep them current from the edited slots
	// alone, rescanning a tree only when its argmax slot itself is
	// dirtied (see UpdateCapacities).
	treeMax []ratioMax
	// diameter is the hop diameter measured at Build time. Capacity
	// edits never change the topology, so update-path round charges
	// reuse it instead of re-running the O(n+m) BFS approximation —
	// the update must stay O(edits × depth), not O(n+m).
	diameter int
	// updWS pools each tree's dirty-path scratch across updates.
	updWS []vtree.DeltaScratch
	// exactRows records Config.ExactCuts at Build (see ExactRows).
	exactRows bool
}

// ExactRows reports whether R's rows are scaled by the exact G-cut
// capacities (Config.ExactCuts at Build). Then every row is a real
// G-cut, ‖Rb‖∞ ≤ opt(b) for every demand b, and 1/‖Rb‖∞ for a unit s-t
// demand is the smallest tree cut separating s from t — an upper bound
// on the maximum flow. Under the virtual tree capacities the rows only
// approximate cuts and neither holds.
func (a *Approximator) ExactRows() bool { return a.exactRows }

// ratioMax is one tree's measured distortion extrema: the largest
// overestimate hi = max cap_T/cap_G and underestimate lo = max
// cap_G/cap_T over the tree's non-root slots, with their argmax
// vertices (ties resolved toward the lowest vertex, the scan order).
type ratioMax struct {
	hi, lo       float64
	hiArg, loArg int
}

// measureTreeRatios scans one tree's slots in vertex order.
func measureTreeRatios(t *vtree.VTree, cc []float64) ratioMax {
	m := ratioMax{hi: 1, lo: 1, hiArg: -1, loArg: -1}
	for v := 0; v < t.N(); v++ {
		if v == t.Root || cc[v] <= 0 {
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
	return m
}

// remeasure recomputes every per-tree extremum (tree-parallel) and the
// global Alpha/AlphaLow. The per-tree scans are independent and the
// combination runs in fixed tree order, so the result is a pure
// function of the state at every worker count.
func (a *Approximator) remeasure() {
	if len(a.treeMax) != len(a.Trees) {
		a.treeMax = make([]ratioMax, len(a.Trees))
	}
	n := 0
	if len(a.Trees) > 0 {
		n = a.Trees[0].N()
	}
	par.DoSized(len(a.Trees), n, func(k int) {
		a.treeMax[k] = measureTreeRatios(a.Trees[k], a.CutCap[k])
	})
	a.combineAlpha()
}

// combineAlpha folds the maintained per-tree extrema into Alpha and
// AlphaLow in tree order.
func (a *Approximator) combineAlpha() {
	a.Alpha = 1
	a.AlphaLow = 1
	for _, m := range a.treeMax {
		if m.hi > a.Alpha {
			a.Alpha = m.hi
		}
		if m.lo > a.AlphaLow {
			a.AlphaLow = m.lo
		}
	}
}

// Build samples the congestion approximator for g. A churned graph
// (tombstoned edges or removed vertices) is compacted to its active
// subgraph for sampling and the result expanded back to the full id
// space (see churn.go), so long-lived routers can rebuild in place.
func Build(g *graph.Graph, cfg Config, rng *rand.Rand) (*Approximator, error) {
	return BuildCtx(context.Background(), g, cfg, rng)
}

// BuildCtx is Build under a context: a done context (cancelled or past
// its deadline) aborts the build with the context's error at the next
// tree-level granule — the construction never publishes partial state,
// so an aborted build leaves nothing to clean up. Builds do not degrade
// on deadline the way query solves do: an approximator is either fully
// sampled or absent.
func BuildCtx(ctx context.Context, g *graph.Graph, cfg Config, rng *rand.Rand) (*Approximator, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("capprox: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("capprox: graph must be connected")
	}
	if g.Churned() {
		return buildChurned(ctx, g, cfg, rng)
	}
	trees := cfg.Trees
	if trees == 0 {
		trees = int(math.Ceil(math.Log2(float64(n)+2))) + 1
	}
	a := &Approximator{Ledger: congest.NewLedger(), exactRows: cfg.ExactCuts}
	buildStart := time.Now() //distflow:allow detrand build-phase timing stat only; never feeds results
	diameter := g.DiameterApprox()
	a.diameter = diameter

	// Draw one PRNG seed per tree from the master stream up front, then
	// sample the ⌈log₂n⌉+1 virtual trees concurrently on the shared
	// worker pool, each from its own independently seeded PRNG. The
	// seeds — and hence every tree — are a pure function of the master
	// seed, so builds are reproducible at every worker count. Round
	// charges accumulate in per-tree ledgers merged in tree order.
	seeds := make([]int64, trees)
	for k := range seeds {
		seeds[k] = rng.Int63()
	}
	type sampled struct {
		t       *vtree.VTree
		levels  []int
		ledger  *congest.Ledger
		seconds float64
		phases  samplePhases
		err     error
	}
	outs := make([]sampled, trees)
	par.Do(trees, func(k int) {
		led := congest.NewLedger()
		treeStart := time.Now() //distflow:allow detrand build-phase timing stat only; never feeds results
		var ph samplePhases
		t, levels, err := sampleTree(ctx, g, cfg, diameter, led, rand.New(rand.NewSource(seeds[k])), &ph)
		outs[k] = sampled{
			t: t, levels: levels, ledger: led, err: err,
			seconds: time.Since(treeStart).Seconds(), phases: ph, //distflow:allow detrand build-phase timing stat only; never feeds results
		}
	})
	for k := range outs {
		if outs[k].err != nil {
			return nil, fmt.Errorf("capprox: tree %d: %w", k, outs[k].err)
		}
		a.Trees = append(a.Trees, outs[k].t)
		a.Levels = append(a.Levels, outs[k].levels)
		a.Ledger.Add(outs[k].ledger)
		a.Stats.SampleSeconds += outs[k].seconds
		a.Stats.SparsifySeconds += outs[k].phases.sparsify
		a.Stats.RaceSeconds += outs[k].phases.race
	}

	// Exact subtree-cut capacities via the tree-flow identity (one
	// independent LCA sweep per tree, run tree-parallel, each against
	// pooled scratch — the lifting tables and delta buffers are reused
	// across trees and workers instead of allocated fresh per tree), and
	// the realized distortion α. Timing is per tree, summed — the same
	// CPU-seconds convention as the sampling phase, so the breakdown
	// stays unit-consistent on multicore runs.
	pairs := livePairs(g)
	a.CutCap = make([][]float64, trees)
	a.Scale = make([][]float64, trees)
	cutcapSec := make([]float64, trees)
	par.DoSized(trees, n, func(k int) {
		treeStart := time.Now() //distflow:allow detrand build-phase timing stat only; never feeds results
		t := a.Trees[k]
		cc := treeFlowPooled(t, pairs, nil)
		scale := make([]float64, n)
		for v := 0; v < n; v++ {
			if v == t.Root {
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
		cutcapSec[k] = time.Since(treeStart).Seconds() //distflow:allow detrand build-phase timing stat only; never feeds results
	})
	for _, s := range cutcapSec {
		a.Stats.CutCapSeconds += s
	}
	alphaStart := time.Now() //distflow:allow detrand build-phase timing stat only; never feeds results
	a.remeasure()

	// Measured Cor. 9.3 evaluation schedule (see field doc).
	sqrtN := math.Sqrt(float64(n))
	for _, t := range a.Trees {
		dec := t.Decompose(nil, sqrtN, rng)
		a.evalSchedule += int64(2*(dec.MaxDepth+1) + diameter + dec.NumComponents())
	}
	a.Stats.AlphaSeconds = time.Since(alphaStart).Seconds() //distflow:allow detrand build-phase timing stat only; never feeds results
	a.Stats.TotalSeconds = time.Since(buildStart).Seconds() //distflow:allow detrand build-phase timing stat only; never feeds results
	return a, nil
}

// CapDelta is one coalesced capacity edit handed to UpdateCapacities:
// the edited graph edge's endpoints and its capacity change new−old.
// Callers coalesce first — at most one delta per edge, no zero diffs —
// so the edit list is exactly the dirty work.
type CapDelta struct {
	U, V int
	Diff float64
}

// UpdateCapacities refreshes the approximator in place after the given
// capacity edits were applied to g, keeping every sampled tree
// topology. Per tree — tree-parallel, deterministically — the refresh
// is dirty-path: by the Lemma 8.3 tree-flow identity, editing edge
// (u,v) by Δ changes exactly the subtree cuts along the tree path
// u→LCA(u,v)→v, each by Δ, so the exact cut capacities are patched
// along those paths in O(edits × depth) instead of re-swept in
// O((n+m) log n). Each dirty virtual capacity shifts by its cut's delta
// (the tree's hierarchical routing is held fixed, so a capacity edit
// transports additively along the tree paths crossing the cut),
// clamped to the exact cut capacity if the shift would drive it
// nonpositive; Scale is refreshed per cfg.ExactCuts. A tree whose
// summed edit-path length exceeds cfg.UpdateDirtyFraction × (n+m)
// falls back to the full TreeFlow sweep — the identical-result slow
// path.
//
// α is re-measured from the maintained per-tree extrema: only the
// dirty slots' ratios changed, so each tree's maximum is updated from
// those alone, unless the tree's previous argmax slot is itself dirty
// (its ratio may have dropped), in which case that tree is rescanned.
// Under adversarial edits (say, a slashed cut) α degrades honestly,
// which is what the caller's rebuild fallback watches. In the solver's
// integer-capacity regime the refreshed state is bit-identical to
// RefreshCapacities' full sweep at every worker count.
//
// The return values report how many trees took the dirty path and how
// many fell back to a full re-sweep.
//
// Not safe concurrently with ApplyR/ApplyRT/PotentialRT on the same
// approximator.
func (a *Approximator) UpdateCapacities(g *graph.Graph, cfg Config, edits []CapDelta) (dirtyTrees, sweptTrees int) {
	if len(edits) == 0 {
		return 0, 0
	}
	frac := cfg.UpdateDirtyFraction
	if frac == 0 {
		frac = 0.25
	}
	if frac < 0 {
		a.RefreshCapacities(g, cfg)
		return 0, len(a.Trees)
	}
	if len(a.treeMax) != len(a.Trees) {
		// Hand-assembled approximator: establish the extrema first.
		a.remeasure()
	}
	n := g.N()
	dedits := make([]vtree.DeltaEdit, len(edits))
	for i, ed := range edits {
		dedits[i] = vtree.DeltaEdit{U: ed.U, V: ed.V, Diff: ed.Diff}
	}
	if len(a.updWS) != len(a.Trees) {
		a.updWS = make([]vtree.DeltaScratch, len(a.Trees))
	}
	// Per-tree dirty work (also builds each tree's cached LCA tables,
	// tree-parallel, on the first update).
	work := make([]int, len(a.Trees))
	par.DoSized(len(a.Trees), n, func(k int) {
		work[k] = a.Trees[k].PathWork(dedits)
	})
	budget := frac * float64(n+g.M())
	sweep := make([]bool, len(a.Trees))
	var pairs []vtree.EdgeEndpoint
	for k := range a.Trees {
		if float64(work[k]) > budget {
			sweep[k] = true
			sweptTrees++
		}
	}
	dirtyTrees = len(a.Trees) - sweptTrees
	if sweptTrees > 0 {
		// At least one tree re-sweeps: materialize the edge list once.
		pairs = livePairs(g)
	}
	par.DoSized(len(a.Trees), n, func(k int) {
		if sweep[k] {
			a.treeMax[k], _ = refreshTree(a.Trees[k], pairs, a.CutCap[k], a.Scale[k], cfg, n, nil)
			return
		}
		a.patchTree(k, cfg, dedits, n, nil)
	})
	a.combineAlpha()
	// Charge the distributed cost in fixed tree order: a dirty-path
	// update fixes only the edited tree paths — D to disseminate the
	// edits plus one round per patched tree edge — and never more than
	// the full Lemma 8.3 aggregation Õ(√n + D) a re-swept tree pays.
	sq := int64(math.Ceil(math.Sqrt(float64(n))))
	diameter := a.buildDiameter(g)
	for k := range a.Trees {
		c := diameter + int64(work[k])
		if sweep[k] || c > diameter+sq {
			c = diameter + sq
		}
		a.Ledger.ChargeAccounted("update-treeflow", c)
	}
	return dirtyTrees, sweptTrees
}

// buildDiameter returns the hop diameter measured at Build time,
// measuring it once for hand-assembled approximators. Capacity edits
// never change topology, so the cached value stays exact and the
// update path avoids an O(n+m) BFS per call.
func (a *Approximator) buildDiameter(g *graph.Graph) int64 {
	if a.diameter == 0 && g.N() > 1 {
		a.diameter = g.DiameterApprox()
	}
	return int64(a.diameter)
}

// RefreshCapacities is the full-sweep refresh: one TreeFlow sweep per
// tree recomputes every exact subtree-cut capacity from g's current
// edge list, virtual capacities shift by the measured cut deltas, and
// α is re-measured from full per-tree scans. It is UpdateCapacities'
// per-tree fallback and its property-test oracle; results agree bit for
// bit in the integer-capacity regime. Cost: O((n+m) log n) per tree.
func (a *Approximator) RefreshCapacities(g *graph.Graph, cfg Config) {
	n := g.N()
	pairs := livePairs(g)
	if len(a.treeMax) != len(a.Trees) {
		a.treeMax = make([]ratioMax, len(a.Trees))
	}
	par.DoSized(len(a.Trees), n, func(k int) {
		a.treeMax[k], _ = refreshTree(a.Trees[k], pairs, a.CutCap[k], a.Scale[k], cfg, n, nil)
	})
	a.combineAlpha()
	// Charge the distributed cost: one Lemma 8.3 tree-flow aggregation
	// per tree, Õ(√n + D).
	sq := int64(math.Ceil(math.Sqrt(float64(n))))
	diameter := a.buildDiameter(g)
	for range a.Trees {
		a.Ledger.ChargeAccounted("update-treeflow", diameter+sq)
	}
}

// refreshTree full-sweeps one tree: recomputes its cut capacities into
// cc (in place), shifts the virtual capacities by the cut deltas, and
// returns the rescanned distortion extrema plus the largest
// multiplicative change among pre-existing cuts (slots below freshFrom
// whose values moved — the same structural-degradation signal
// patchTree reports). A slot whose cut holds no live capacity (an
// all-removed subtree after topology churn) keeps a unit
// virtual-capacity sentinel and a zero scale — its row is excluded
// from R exactly as the dirty path excludes it.
func refreshTree(t *vtree.VTree, pairs []vtree.EdgeEndpoint, cc, scale []float64, cfg Config, freshFrom int, skipShift []bool) (ratioMax, float64) {
	fresh := treeFlowPooled(t, pairs, nil)
	shift := 1.0
	for v := 0; v < t.N(); v++ {
		if v == t.Root {
			continue
		}
		if v < freshFrom && fresh[v] != cc[v] && (skipShift == nil || !skipShift[v]) {
			if s := shiftRatio(cc[v], fresh[v]); s > shift {
				shift = s
			}
		}
		nv := t.Cap[v] + (fresh[v] - cc[v])
		if nv <= 0 {
			nv = fresh[v]
			if nv <= 0 {
				nv = 1
			}
		}
		t.Cap[v] = nv
		if fresh[v] <= 0 {
			scale[v] = 0
		} else if cfg.ExactCuts {
			scale[v] = fresh[v]
		} else {
			scale[v] = nv
		}
	}
	copy(cc, fresh)
	return measureTreeRatios(t, cc), shift
}

// samplePhases accumulates one sampleTree call's sub-phase durations.
type samplePhases struct {
	sparsify float64 // cluster sparsification
	race     float64 // SplitGraph races inside the LSST, all candidates
}

// samplerWS bundles the j-tree construction arenas of one sampleTree
// call (one per candidate slot), pooled across trees: a 1-worker build
// then reuses a single bundle for all ~log n trees instead of
// allocating full arenas per tree, which at n=10⁶ is the difference
// between one working set and twenty. The terminal collapse borrows
// slot 0 rather than owning a fourth arena — each arena is a quarter
// gigabyte at n=10⁶, and StepWS's pointer-identity arena selection
// already guarantees a step can never clobber the cluster graph it is
// reading, wherever that graph lives.
type samplerWS struct {
	wss []*jtree.Workspace
}

var samplerPool = sync.Pool{New: func() any { return &samplerWS{} }}

// sampleTree draws one virtual tree from the recursive distribution.
// phases accumulates the time spent in the instrumented sub-phases.
// A done ctx aborts between contraction levels — the finest granule at
// which the per-tree state is cheap to abandon.
func sampleTree(ctx context.Context, g *graph.Graph, cfg Config, diameter int, ledger *congest.Ledger, rng *rand.Rand, phases *samplePhases) (*vtree.VTree, []int, error) {
	n := g.N()
	beta := cfg.Beta
	if beta == 0 {
		beta = math.Pow(2, math.Pow(math.Log2(float64(n)+2), 0.75))
	}
	if beta < 2 {
		beta = 2
	}
	threshold := cfg.CoreThreshold
	if threshold == 0 {
		threshold = int(math.Max(8, 2*math.Ceil(math.Sqrt(float64(n)))))
	}
	candidates := cfg.Candidates
	if candidates == 0 {
		candidates = 3
	}
	sqrtN := math.Sqrt(float64(n))

	vparent := make([]int, n)
	vcap := make([]float64, n)
	assigned := make([]bool, n)
	for v := range vparent {
		vparent[v] = -1
	}

	cg := cluster.FromGraph(g)
	levels := []int{cg.N}

	// One pooled construction arena per candidate slot, reused across
	// all levels of this tree — and, via samplerPool, across trees
	// sharing a worker. A StepResult is consumed (place + next-level
	// input) before its slot's workspace runs again, and the alternating
	// core buffers inside each workspace keep the current input cluster
	// graph intact while its successor is built. The bundle returns to
	// the pool only after the sampled tree has been copied out into its
	// own storage (vtree.New).
	sw := samplerPool.Get().(*samplerWS)
	defer samplerPool.Put(sw)
	for len(sw.wss) < candidates {
		sw.wss = append(sw.wss, jtree.NewWorkspace())
	}
	wss := sw.wss[:candidates]
	candSeeds := make([]int64, candidates)
	candRes := make([]*jtree.StepResult, candidates)
	candErr := make([]error, candidates)

	place := func(res *jtree.StepResult) {
		for _, fe := range res.Forest {
			u := cg.Rep[fe.Child]
			if assigned[u] {
				// A lineage vertex can exit only once; this is a
				// construction invariant.
				panic(fmt.Sprintf("capprox: vertex %d assigned twice", u))
			}
			assigned[u] = true
			vparent[u] = cg.Rep[fe.Parent]
			vcap[u] = fe.Cap
		}
	}

	distributed := true
	//distflow:poll per-contraction-level granule: cheapest point to abandon a tree (DESIGN.md §11)
	for cg.N > 1 {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if distributed && cg.N <= threshold {
			// The remaining core is published to every node over a BFS
			// tree (§8.4): n^{1/2+o(1)} summaries, pipelined.
			ledger.ChargeAccounted("core-publish", int64(diameter+cg.N+len(cg.Edges)))
			distributed = false
		}

		var j int
		if distributed {
			j = int(float64(cg.N) / (4 * beta))
			if j < 1 {
				j = 1
			}
		} else {
			j = cg.N / 8
			if j < 1 {
				j = 1
			}
		}

		// Optional sparsification of dense cluster graphs (§8.4 step 1).
		logN := math.Log2(float64(cg.N) + 2)
		if cfg.UseSparsifier && float64(len(cg.Edges)) > 4*float64(cg.N)*logN {
			sparsifyStart := time.Now() //distflow:allow detrand build-phase timing stat only; never feeds results
			cg2, acct, err := sparsifyCluster(cg, rng)
			phases.sparsify += time.Since(sparsifyStart).Seconds() //distflow:allow detrand build-phase timing stat only; never feeds results
			if err != nil {
				return nil, nil, err
			}
			if distributed {
				ledger.ChargeAccounted("sparsify", acct)
			}
			cg = cg2
		}

		// Candidate j-trees (Theorem 8.10 step 4). The candidates are
		// evaluated concurrently on the shared worker pool: the uniform
		// pick and each candidate's PRNG seed are drawn from the tree
		// stream in candidate order before the parallel region, and the
		// candidates then run independently from the same edge lengths —
		// so the adopted tree is a pure function of (cluster graph, tree
		// seed) at every worker count. Candidate diversity comes from
		// the independent seeds; the sequential multiplicative-weights
		// sweep it replaces coupled each candidate to its predecessors
		// and forced serial evaluation. Selection stays the paper's
		// uniform draw: the greedy alternative (argmin of MaxRload,
		// ties by index) measured strictly worse approximators — E1's
		// charged-round growth exponent left the sub-quadratic band and
		// benchmark iterations rose 20% (DESIGN.md §6).
		lengths := make([]float64, len(cg.Edges))
		for i, e := range cg.Edges {
			lengths[i] = 1 / e.Cap
		}
		stepCfg := cfg.Step
		if !distributed {
			// §8.4: the local continuation drops the component size
			// control (no R sampling); tiny cores collapse to a tree.
			stepCfg.DisableR = true
			if cg.N <= 8 {
				stepCfg.DisableF = true
			}
		}
		pickU := rng.Intn(candidates)
		for c := 0; c < candidates; c++ {
			candSeeds[c] = rng.Int63()
		}
		par.Do(candidates, func(c int) {
			candRes[c], candErr[c] = jtree.StepWS(cg, lengths, j, sqrtN, stepCfg,
				rand.New(rand.NewSource(candSeeds[c])), wss[c])
		})
		var chosen *jtree.StepResult
		for c := 0; c < candidates; c++ {
			if candErr[c] != nil {
				return nil, nil, candErr[c]
			}
			phases.race += candRes[c].LSSTRaceSeconds
			if c == pickU {
				chosen = candRes[c]
			}
			if distributed {
				// Charge the per-candidate distributed cost: the LSST
				// (Theorem 3.1), the tree-flow aggregation (Lemma 8.3)
				// and the skeleton/portal machinery (Lemma 8.8), all
				// Õ(√n + D) with the measured depths.
				sq := int64(math.Ceil(sqrtN))
				ledger.ChargeAccounted("lsst", int64(diameter)+sq*int64(math.Ceil(logN)))
				ledger.ChargeAccounted("treeflow", int64(diameter)+sq+int64(cg.MaxDepth()))
				ledger.ChargeAccounted("skeleton", sq+int64(cg.MaxDepth()))
			}
		}
		ledger.ChargeAccounted("sample", int64(diameter))

		if chosen.Core.N >= cg.N {
			// No contraction: if the Lemma 8.2 sampling cut everything
			// (cluster sizes approaching √n), fall to the local phase;
			// locally, collapse outright.
			if distributed {
				ledger.ChargeAccounted("core-publish", int64(diameter+cg.N+len(cg.Edges)))
				distributed = false
				continue
			}
			stepCfg.DisableF = true
			// Borrow candidate slot 0's arena: every candRes of this
			// level is dead in this branch, and the arena selection
			// inside StepWS keeps cg safe even when cg lives in wss[0].
			res, err := jtree.StepWS(cg, lengths, 1, sqrtN, stepCfg, rng, wss[0])
			if err != nil {
				return nil, nil, err
			}
			phases.race += res.LSSTRaceSeconds
			if res.Core.N >= cg.N {
				return nil, nil, fmt.Errorf("capprox: no progress at N=%d", cg.N)
			}
			chosen = res
		}
		place(chosen)
		cg = chosen.Core
		levels = append(levels, cg.N)
	}

	root := cg.Rep[0]
	if assigned[root] {
		return nil, nil, fmt.Errorf("capprox: root %d was assigned a parent", root)
	}
	t, err := vtree.New(root, vparent, withRootCap(vcap, root))
	if err != nil {
		return nil, nil, err
	}
	return t, levels, nil
}

func withRootCap(vcap []float64, root int) []float64 {
	out := append([]float64(nil), vcap...)
	out[root] = 0
	for v, c := range out {
		if v != root && c <= 0 {
			// vtree.New validates; make failure informative instead.
			panic(fmt.Sprintf("capprox: vertex %d has no virtual capacity", v))
		}
	}
	return out
}

// sparsifyCluster applies the cut sparsifier to the cluster multigraph,
// doubling capacities to absorb the 1−ε underestimate (§8.4 step 1).
func sparsifyCluster(cg *cluster.Graph, rng *rand.Rand) (*cluster.Graph, int64, error) {
	in := make([]sparsify.Edge, len(cg.Edges))
	for i, e := range cg.Edges {
		in[i] = sparsify.Edge{U: e.A, V: e.B, W: e.Cap}
	}
	// Practical pack/target: the asymptotic pack size exceeds any
	// laptop-scale m (see package sparsify); E3 measures the cut
	// distortion this configuration realizes.
	res, err := sparsify.Sparsify(cg.N, in, sparsify.Config{PackSize: 2, TargetFactor: 1}, rng)
	if err != nil {
		return nil, 0, fmt.Errorf("capprox: sparsify: %w", err)
	}
	// The bookkeeping arrays are deep-copied, not shared: cg may live in
	// a jtree workspace arena, and the sparsified graph must survive the
	// arena's next reuse (it becomes the level input while candidate
	// steps write their cores).
	out := &cluster.Graph{
		N:     cg.N,
		Edges: make([]cluster.Edge, len(res.Edges)),
		Rep:   append([]int(nil), cg.Rep...),
		Size:  append([]float64(nil), cg.Size...),
		Depth: append([]int(nil), cg.Depth...),
	}
	for i, e := range res.Edges {
		out.Edges[i] = cluster.Edge{
			A: e.U, B: e.V,
			Cap:  2 * e.W,
			Phys: cg.Edges[res.Origin[i]].Phys,
		}
	}
	return out, res.AccountRounds(cg.N, 0), nil
}

// --- R and Rᵀ application (§9.1–9.2) ---

// ApplyR returns y with y[k][v] = (Σ_{u∈subtree_k(v)} b[u]) / Scale[k][v]
// for every tree k and non-root v (root entries are 0): the congestion
// estimates of all subtree cuts. One bottom-up sweep per tree; the
// trees are independent, so the sweeps run tree-parallel.
func (a *Approximator) ApplyR(b []float64) [][]float64 {
	out := make([][]float64, len(a.Trees))
	for k, t := range a.Trees {
		out[k] = make([]float64, t.N())
	}
	return a.ApplyRInto(b, out)
}

// ApplyRInto is ApplyR writing into caller-provided per-tree buffers
// (out[k] of length N each), for solvers that re-apply R every
// iteration and reuse the workspace.
func (a *Approximator) ApplyRInto(b []float64, out [][]float64) [][]float64 {
	if len(out) != len(a.Trees) {
		panic("capprox: output tree count mismatch")
	}
	par.DoSized(len(a.Trees), len(b), func(k int) {
		t := a.Trees[k]
		RowScale(t.SubtreeSumsInto(b, out[k]), a.Scale[k], t.Root, 1, 0, t.N())
	})
	return out
}

// ApplyRT returns Rᵀp: for prices p[k][v] attached to tree k's cut
// (v,parent), the node potentials π[u] = Σ_k Σ_{cuts above u} p/scale.
// One top-down sweep per tree.
func (a *Approximator) ApplyRT(p [][]float64) []float64 {
	n := 0
	if len(a.Trees) > 0 {
		n = a.Trees[0].N()
	}
	scratch := make([][]float64, len(a.Trees))
	for k := range scratch {
		scratch[k] = make([]float64, n)
	}
	return a.ApplyRTInto(p, make([]float64, n), scratch)
}

// ApplyRTInto is ApplyRT with caller-provided buffers: the per-tree
// sweeps run tree-parallel into scratch (len Trees, each len N), then
// out[v] accumulates across trees in fixed tree order chunk-parallel
// over vertices — the combination order never depends on the worker
// count, keeping potentials bit-reproducible.
func (a *Approximator) ApplyRTInto(p [][]float64, out []float64, scratch [][]float64) []float64 {
	if len(p) != len(a.Trees) {
		panic("capprox: price tree count mismatch")
	}
	if len(scratch) != len(a.Trees) {
		panic("capprox: scratch tree count mismatch")
	}
	par.DoSized(len(a.Trees), len(out), func(k int) {
		t := a.Trees[k]
		RowPrep(scratch[k], p[k], a.Scale[k], t.Root, 1, 0, t.N())
		t.RootPathSumsInto(scratch[k], scratch[k])
	})
	par.For(len(out), func(lo, hi int) { SumTrees(out, scratch, lo, hi) })
	return out
}

// EvalScratch holds the per-tree buffers one fused PotentialRT
// evaluation needs. Solvers keep one per workspace (pooled across
// queries) so the per-tree [][]float64 scratch is never reallocated on
// the hot path.
type EvalScratch struct {
	// Sub holds per-tree subtree aggregates, then soft-max gradient
	// numerators (len Trees, each len N).
	Sub [][]float64
	// PT holds the per-tree root-path sweeps of Rᵀ (len Trees, each
	// len N).
	PT [][]float64
	// tm holds the per-tree maxima and parts the per-(tree, chunk)
	// exponential sums, folded in a fixed order so the reductions are
	// worker-count independent; chunks is the chunk count of par.Grid(N).
	tm, parts []float64
	chunks    int
}

// NewEvalScratch allocates an EvalScratch sized for the approximator.
func (a *Approximator) NewEvalScratch() *EvalScratch {
	s := &EvalScratch{
		Sub: make([][]float64, len(a.Trees)),
		PT:  make([][]float64, len(a.Trees)),
		tm:  make([]float64, len(a.Trees)),
	}
	for k, t := range a.Trees {
		s.Sub[k] = make([]float64, t.N())
		s.PT[k] = make([]float64, t.N())
	}
	if len(a.Trees) > 0 {
		_, s.chunks = par.Grid(a.Trees[0].N())
		s.parts = make([]float64, len(a.Trees)*s.chunks)
	}
	return s
}

// PotentialRT computes, in fused tree-parallel sweeps, the φ₂ part of
// Sherman's potential for the residual demand r: with y = ta·R·r
// (ta = 2α), it returns smax(y) = log Σ (e^{y}+e^{-y}) over every
// non-root (tree, vertex) slot and writes the node potentials
// π = Rᵀ·∇smax(y) into pi (len N).
//
// This fuses ApplyRInto, a soft-max gradient over every row, and
// ApplyRTInto into the R-row kernels below — RowScale, RowExp, RowPrep,
// then SumTrees after the top-down sweeps: the 2α scaling and the
// 1/Scale row scalings are folded into the tree sweeps, the soft-max
// works per tree instead of over a flat scatter index, and the gradient
// numerators overwrite the subtree aggregates in place — three full
// passes over K·N temporaries (and both scatter copies) disappear from
// every gradient iteration. internal/shard runs the same kernels on
// each shard's vertices.
//
// Determinism: per-tree maxima and per-(tree, chunk) exponential sums
// are folded in a fixed order on the calling goroutine (FoldExpSums),
// and the final accumulation over trees is chunk-parallel over vertices
// in fixed tree order, so the result is a pure function of (r, ta) at
// every worker count. The summation order differs in the last ulps from
// the unfused ApplyR → numutil.SoftMaxGrad → ApplyRT composition, which
// tests compare against with a tolerance.
func (a *Approximator) PotentialRT(r []float64, ta float64, s *EvalScratch, pi []float64) float64 {
	if len(s.Sub) != len(a.Trees) || len(s.PT) != len(a.Trees) {
		panic("capprox: scratch tree count mismatch")
	}
	// Pass 1: per-tree subtree sums, scaled to y = ta·(Σ_subtree r)/Scale,
	// tracking the per-tree max |y| for the shifted exponentials.
	par.DoSized(len(a.Trees), len(pi), func(k int) {
		t := a.Trees[k]
		s.tm[k] = RowScale(t.SubtreeSumsInto(r, s.Sub[k]), a.Scale[k], t.Root, ta, 0, t.N())
	})
	m := 0.0
	for _, v := range s.tm {
		if v > m {
			m = v
		}
	}
	// Pass 2: shifted exponential sums per chunk of the canonical
	// par.Grid — the chunks a shard owns whole — with the gradient
	// numerators overwriting y in place.
	par.DoSized(len(a.Trees), len(pi), func(k int) {
		t := a.Trees[k]
		size, count := par.Grid(t.N())
		for c := 0; c < count; c++ {
			s.parts[k*count+c] = RowExp(s.Sub[k], t.Root, m, c*size, min((c+1)*size, t.N()))
		}
	})
	sum := FoldExpSums(s.parts, s.chunks)
	inv := 1 / sum
	// Pass 3: π = Rᵀ·∇smax — the 1/sum normalization and the row scaling
	// fold into the top-down sweeps, then the per-vertex accumulation
	// combines trees in fixed order.
	par.DoSized(len(a.Trees), len(pi), func(k int) {
		t := a.Trees[k]
		RowPrep(s.PT[k], s.Sub[k], a.Scale[k], t.Root, inv, 0, t.N())
		t.RootPathSumsInto(s.PT[k], s.PT[k])
	})
	par.For(len(pi), func(lo, hi int) { SumTrees(pi, s.PT, lo, hi) })
	return m + math.Log(sum)
}

// NormRb returns ‖Rb‖∞ — with the default (virtual) scaling this is a
// lower bound on the optimal congestion opt(b).
func (a *Approximator) NormRb(b []float64) float64 {
	sub := make([][]float64, len(a.Trees))
	for k, t := range a.Trees {
		sub[k] = make([]float64, t.N())
	}
	return a.NormRbInto(b, sub)
}

// NormRbInto is NormRb sweeping into caller-provided per-tree scratch
// (len Trees, each len N) — typically EvalScratch.Sub between
// evaluations, which it overwrites.
func (a *Approximator) NormRbInto(b []float64, sub [][]float64) float64 {
	if len(sub) != len(a.Trees) {
		panic("capprox: scratch tree count mismatch")
	}
	tm := make([]float64, len(a.Trees))
	par.DoSized(len(a.Trees), len(b), func(k int) {
		t := a.Trees[k]
		tm[k] = RowScale(t.SubtreeSumsInto(b, sub[k]), a.Scale[k], t.Root, 1, 0, t.N())
	})
	m := 0.0
	for _, v := range tm {
		if v > m {
			m = v
		}
	}
	return m
}

// The R-row kernels: the per-slot passes of R and Rᵀ over one vertex
// range [lo,hi) of a tree with root root and row scaling scale. Slot
// root and zero-scale slots are not rows of R. The flat path runs them
// over whole trees, tree-parallel unless all trees together fit one
// chunk (par.DoSized); internal/shard runs them over each shard's
// vertex chunks and folds the partials as the flat path does.

// RowScale overwrites the subtree sums y[v] over [lo,hi) with the row
// values ta·y[v]/scale[v] (0 off the rows) and returns their largest
// magnitude, 0 for an empty range: R's row scaling at ta = 1 (ApplyR,
// ‖Rb‖∞) and the scaled soft-max argument and its shift at ta = 2α.
func RowScale(y, scale []float64, root int, ta float64, lo, hi int) float64 {
	m := 0.0
	for v := lo; v < hi; v++ {
		if v == root || scale[v] == 0 {
			y[v] = 0
			continue
		}
		y[v] = ta * y[v] / scale[v]
		if ay := math.Abs(y[v]); ay > m {
			m = ay
		}
	}
	return m
}

// RowExp overwrites y[v] over [lo,hi) with the soft-max gradient
// numerator e^{y−m} − e^{−y−m} (0 at the root) and returns the range's
// shifted exponential sum: numutil.SymExpSum on each side of the root.
// Zero-scale slots hold y = 0 and contribute like every other non-root
// slot.
func RowExp(y []float64, root int, m float64, lo, hi int) float64 {
	if root < lo || root >= hi {
		return numutil.SymExpSum(y[lo:hi], y[lo:hi], m)
	}
	y[root] = 0
	s := numutil.SymExpSum(y[lo:root], y[lo:root], m)
	return s + numutil.SymExpSum(y[root+1:hi], y[root+1:hi], m)
}

// FoldExpSums folds RowExp's partials, laid out tree by tree with
// chunks partials per tree in chunk order: par.FoldSum per tree, then
// the trees in tree order — the one expression for φ₂'s exponential
// sum, on the flat path and at the shard coordinator.
func FoldExpSums(parts []float64, chunks int) float64 {
	sum := 0.0
	for lo := 0; lo < len(parts); lo += chunks {
		sum += par.FoldSum(parts[lo : lo+chunks])
	}
	return sum
}

// RowPrep writes Rᵀ's row scaling of the prices y into buf over [lo,hi):
// buf[v] = y[v]·inv/scale[v], 0 off the rows, ready for the top-down
// sweep (inv = 1 for ApplyRT, the soft-max's 1/sum in PotentialRT).
func RowPrep(buf, y, scale []float64, root int, inv float64, lo, hi int) {
	for v := lo; v < hi; v++ {
		if v == root || scale[v] == 0 {
			buf[v] = 0
			continue
		}
		buf[v] = y[v] * inv / scale[v]
	}
}

// SumTrees writes pi[v] = Σ_k pt[k][v] over [lo,hi), adding the trees'
// root-path sums in tree order: Rᵀ's final accumulation.
func SumTrees(pi []float64, pt [][]float64, lo, hi int) {
	for v := lo; v < hi; v++ {
		acc := 0.0
		for k := range pt {
			acc += pt[k][v]
		}
		pi[v] = acc
	}
}

// EvalRounds charges one R or Rᵀ application per Corollary 9.3:
// Õ(√n + D). When the approximator was built normally the charge is the
// measured decomposition schedule (see evalSchedule); the formulaic
// trees·(D+√n) is the fallback for hand-assembled approximators.
func (a *Approximator) EvalRounds(n, diameter int) int64 {
	if a.evalSchedule > 0 {
		return a.evalSchedule
	}
	sq := int64(math.Ceil(math.Sqrt(float64(n))))
	return int64(len(a.Trees)) * (int64(diameter) + sq)
}
