package capprox

import "distflow/internal/vtree"

// Epoch forking: distflow's MVCC router applies each update batch to a
// private copy of the approximator and atomically publishes the result,
// so queries keep reading the old copy concurrently. Clone produces
// that private copy. The contract is one-way isolation: mutating the
// clone (UpdateCapacities, UpdateTopology, ResampleTrees) must never be
// observable through the original, while the original is treated as
// frozen from the moment the clone is taken.

// Clone returns a copy of the approximator that the update paths can
// mutate without affecting the original. Everything the update paths
// write is deeply copied: the sampled trees (AddLeaf appends, in-place
// Cap patches), the CutCap/Scale rows (dirty-path patches write slots
// and topology updates append), the per-tree distortion extrema, and
// the round ledger (updates charge phases that queries concurrently
// enumerate). The Levels histories are shared row-wise — they are only
// ever replaced whole by ResampleTrees, never written in place — and
// the dirty-path scratch pool is dropped (it is lazily re-made per
// approximator and holds no semantic state).
func (a *Approximator) Clone() *Approximator {
	c := &Approximator{
		Trees:        make([]*vtree.VTree, len(a.Trees)),
		CutCap:       make([][]float64, len(a.CutCap)),
		Scale:        make([][]float64, len(a.Scale)),
		Alpha:        a.Alpha,
		AlphaLow:     a.AlphaLow,
		Ledger:       a.Ledger.Clone(),
		Levels:       append([][]int(nil), a.Levels...),
		Stats:        a.Stats,
		evalSchedule: a.evalSchedule,
		treeMax:      append([]ratioMax(nil), a.treeMax...),
		diameter:     a.diameter,
		exactRows:    a.exactRows,
	}
	for k, t := range a.Trees {
		c.Trees[k] = t.Clone()
	}
	for k, cc := range a.CutCap {
		c.CutCap[k] = append([]float64(nil), cc...)
	}
	for k, sc := range a.Scale {
		c.Scale[k] = append([]float64(nil), sc...)
	}
	return c
}
