// Package parsumtest exercises the parsum rules against the real
// distflow/internal/par package.
package parsumtest

import "distflow/internal/par"

type acc struct {
	sum float64
}

// BadSum accumulates onto a captured scalar from worker goroutines:
// a data race whose rounding depends on interleaving.
func BadSum(xs []float64) float64 {
	total := 0.0
	par.For(len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total += xs[i] // want `float accumulation onto captured "total"`
		}
	})
	return total
}

// BadSelfAssign is the spelled-out form of the same accumulation,
// through a captured struct field.
func BadSelfAssign(xs []float64) float64 {
	var a acc
	par.Do(len(xs), func(i int) {
		a.sum = a.sum + xs[i] // want `float accumulation onto captured field "sum"`
	})
	return a.sum
}

// BadTreeSum accumulates onto a captured scalar from a per-tree region,
// which runs on the pool once the trees together span more than one
// chunk.
func BadTreeSum(trees [][]float64, n int) float64 {
	total := 0.0
	par.DoSized(len(trees), n, func(k int) {
		total += trees[k][0] // want `float accumulation onto captured "total"`
	})
	return total
}

// GoodSum returns chunk partials through the pool's ordered reduction.
func GoodSum(xs []float64) float64 {
	return par.Sum(len(xs), func(lo, hi int) float64 {
		partial := 0.0
		for i := lo; i < hi; i++ {
			partial += xs[i]
		}
		return partial
	})
}

// IndexedOK writes through disjoint index ranges: deterministic.
func IndexedOK(xs, out []float64) {
	par.For(len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] += xs[i]
		}
	})
}

// AllowedScalar carries a justified suppression.
func AllowedScalar(xs []float64) float64 {
	total := 0.0
	par.For(len(xs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			total += xs[i] //distflow:allow parsum fixture runs under SetWorkers(1), single-threaded by construction
		}
	})
	return total
}
