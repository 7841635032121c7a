package sherman

import (
	"cmp"
	"math"
	"slices"

	"distflow/internal/congest"
	"distflow/internal/graph"
)

// The s-t cut certificate (DESIGN.md §5). Every s-t cut's capacity is at
// least the maximum flow OPT, and an answer that routes the unit s-t
// demand with congestion cong has value 1/cong, so any s-t cut of
// capacity C certifies OPT/Value ≤ cong·C. MaxFlowCtx draws cuts from
// two places: the tree cuts of R (C = 1/‖Rb‖∞, only when R's rows are
// exact cuts) and a threshold sweep over the descent's own dual
// potential π, which is a real G-cut under any row scaling.

// certSlack is the certificate stop's target relative to ε: the outer
// loop stops once an s-t cut certifies OPT/Value ≤ 1 + ε/certSlack.
const certSlack = 50

// sweepCut returns the smallest capacity among the s-t-separating
// threshold sets of the vertex potential pi, and that set. The live
// vertices are ranked by π, largest first, ties broken by vertex id;
// the candidate sets are the rank prefixes that hold exactly one of s
// and t. Removed vertices and dead edges take no part. Capacities are
// summed exactly in int64, so the result is a pure function of the
// ranking. It returns +Inf and a nil set when s or t is removed.
func sweepCut(g *graph.Graph, pi []float64, s, t int) (float64, []bool) {
	n := g.N()
	order := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !g.Removed(v) {
			order = append(order, v)
		}
	}
	slices.SortFunc(order, func(u, v int) int {
		if c := cmp.Compare(pi[v], pi[u]); c != 0 {
			return c
		}
		return cmp.Compare(u, v)
	})
	pos := make([]int, n)
	for v := range pos {
		pos[v] = -1
	}
	for i, v := range order {
		pos[v] = i
	}
	if pos[s] < 0 || pos[t] < 0 {
		return math.Inf(1), nil
	}
	// A live edge whose endpoints rank lo < hi crosses the prefix of
	// length k exactly when lo < k ≤ hi: a difference array turns every
	// prefix's cut capacity into one running sum.
	delta := make([]int64, len(order)+1)
	for _, ed := range g.Edges() {
		lo, hi := pos[ed.U], pos[ed.V]
		if ed.Cap == 0 || lo < 0 || hi < 0 {
			continue
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		delta[lo+1] += ed.Cap
		delta[hi+1] -= ed.Cap
	}
	lo, hi := min(pos[s], pos[t]), max(pos[s], pos[t])
	best, bestK := int64(math.MaxInt64), 0
	cut := int64(0)
	for k := 1; k <= hi; k++ {
		cut += delta[k]
		if k > lo && cut < best {
			best, bestK = cut, k
		}
	}
	side := make([]bool, n)
	for _, v := range order[:bestK] {
		side[v] = true
	}
	return float64(best), side
}

// certificateCut runs sweepCut and charges it to ledger's certificate
// phase: each vertex knows its own π, so the sweep is one BFS-tree
// convergecast of a threshold histogram of cut contributions, pipelined
// in D + ⌈√n⌉ rounds.
func (s *Solver) certificateCut(pi []float64, src, dst int, ledger *congest.Ledger) float64 {
	c, _ := sweepCut(s.g, pi, src, dst)
	ledger.ChargeAccounted("certificate", s.convergecastRounds())
	return c
}

// sumCongestion returns the maximum congestion of the flow a + b, equal
// bit for bit to g.MaxCongestion of the summed vector.
func sumCongestion(g *graph.Graph, a, b []float64) float64 {
	m := 0.0
	for e, ed := range g.Edges() {
		if ed.Cap == 0 {
			continue
		}
		if c := math.Abs(a[e]+b[e]) / float64(ed.Cap); c > m {
			m = c
		}
	}
	return m
}
