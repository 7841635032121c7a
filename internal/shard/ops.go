package shard

import (
	"fmt"
	"math"

	"distflow/internal/capprox"
	"distflow/internal/numutil"
	"distflow/internal/par"
)

// The per-evaluation solver operators. Each runs the kernels of its flat
// entry point — numutil's soft-max passes, graph's residual and
// gradient, capprox's R-row passes — on the chunks every shard owns, and
// adds only what distribution needs: boundary exchange into the
// mirrors, gather and broadcast through the coordinator, the
// level-synchronous tree sweeps, and the coordinator's fold of the
// gathered partials with the fold the flat reduction uses. All of them
// serialize on engine.mu — results are pure functions of the inputs, so
// serialization cannot affect values, only wall time.

// chunkRange returns the [lo,hi) element range of grid chunk c.
func chunkRange(c, size, n int) (lo, hi int) {
	lo = c * size
	hi = lo + size
	if hi > n {
		hi = n
	}
	return lo, hi
}

func (e *Engine) edgeActive(k int) bool {
	return e.part.EdgeChunkHi[k] > e.part.EdgeChunkLo[k]
}

func (e *Engine) vertActive(k int) bool {
	return e.part.VertChunkHi[k] > e.part.VertChunkLo[k]
}

// check panics unless every vector has length n. Operators call it
// before their first superstep, so a mis-sized argument panics on the
// caller's goroutine, where it can be recovered, and never inside a
// shard goroutine, where it would take the process down (see round).
func check(op string, n int, vecs ...[]float64) {
	for _, v := range vecs {
		if len(v) != n {
			panic(fmt.Sprintf("shard: %s: argument of length %d, want %d", op, len(v), n))
		}
	}
}

// checkTrees is check for per-tree scratch: one vector per tree, each
// of the vertex count.
func (e *Engine) checkTrees(op string, bufs ...[][]float64) {
	for _, b := range bufs {
		if len(b) != len(e.trees) {
			panic(fmt.Sprintf("shard: %s: scratch for %d trees, want %d", op, len(b), len(e.trees)))
		}
		check(op, e.part.N, b...)
	}
}

// bcast returns the coordinator's scalar coordVal[slot] on shard s: the
// coordinator ships it to every other shard for which active holds, and
// those receive it. The other shards get 0; they own nothing to apply
// it to.
func (e *Engine) bcast(s *shardState, slot int, active func(int) bool) float64 {
	switch {
	case s.id == coord:
		v := e.coordVal[slot]
		for j := 0; j < e.P; j++ {
			if j != coord && active(j) {
				s.outVals[j] = append(s.outVals[j], v)
				e.send(s, j)
			}
		}
		return v
	case active(s.id):
		return e.recv(s, coord)[0]
	}
	return 0
}

// reduceEdges is par.Sum or par.Max (per fold) across the shards: body's
// partials over shard s's owned edge chunks travel to the coordinator,
// which folds all of them in global chunk order into coordVal[slot].
func (e *Engine) reduceEdges(s *shardState, slot int, fold func([]float64) float64, body func(lo, hi int) float64) {
	pt := e.part
	for ch := pt.EdgeChunkLo[s.id]; ch < pt.EdgeChunkHi[s.id]; ch++ {
		lo, hi := chunkRange(ch, pt.EdgeSize, pt.M)
		s.outVals[coord] = append(s.outVals[coord], body(lo, hi))
	}
	if s.id != coord {
		if len(s.outVals[coord]) > 0 {
			e.send(s, coord)
		}
		return
	}
	for j := 0; j < e.P; j++ {
		if pt.EdgeChunkHi[j] > pt.EdgeChunkLo[j] {
			copy(e.partials[pt.EdgeChunkLo[j]:pt.EdgeChunkHi[j]], e.recv(s, j))
		}
	}
	e.coordVal[slot] = fold(e.partials[:pt.EdgeChunks])
}

// gatherMax ends a superstep in which every shard put its maxima in its
// outbox toward the coordinator: the vertex-owning shards ship them, and
// the coordinator folds all of them into coordVal[slot]. A maximum is
// exact, so this grouping gives the value the flat path folds per tree
// and then over trees.
func (e *Engine) gatherMax(s *shardState, slot int) {
	if s.id != coord {
		if e.vertActive(s.id) {
			e.send(s, coord)
		}
		return
	}
	m := 0.0
	for j := 0; j < e.P; j++ {
		if !e.vertActive(j) {
			continue
		}
		if v := par.FoldMax(e.recv(s, j)); v > m {
			m = v
		}
	}
	e.coordVal[slot] = m
}

// exchange ships x's boundary values along the static lists
// lists[i][j] (slots shard i owns and shard j reads) and returns shard
// s's local view of x, which the kernels read without knowing
// ownership: x itself when s receives nothing — every slot it reads is
// its own — and otherwise s's mirror, holding the received slots and a
// copy of the owned range [lo,hi). The mirror's other slots are never
// read.
func (e *Engine) exchange(s *shardState, x []float64, lists [][][]int32, mirror []float64, lo, hi int) []float64 {
	for j := 0; j < e.P; j++ {
		if lst := lists[s.id][j]; j != s.id && len(lst) > 0 {
			for _, i := range lst {
				s.outVals[j] = append(s.outVals[j], x[i])
			}
			e.send(s, j)
		}
	}
	local := true
	for j := 0; j < e.P; j++ {
		if lst := lists[j][s.id]; j != s.id && len(lst) > 0 {
			for k, v := range e.recv(s, j) {
				mirror[lst[k]] = v
			}
			local = false
		}
	}
	if local {
		return x
	}
	copy(mirror[lo:hi], x[lo:hi])
	return mirror
}

// subtreeSums runs R's aggregation across the shards: each tree's
// accumulator starts as x on the owned slots (SubtreeSumsInto's copy),
// then the bottom-up sweep.
func (e *Engine) subtreeSums(c *Cost, x []float64, acc [][]float64) {
	e.round(c, func(s *shardState) {
		lo, hi := e.part.VertLo[s.id], e.part.VertHi[s.id]
		for k := range acc {
			copy(acc[k][lo:hi], x[lo:hi])
		}
	})
	e.sweepUp(c, acc)
}

// SoftMaxGradScaled is numutil.SoftMaxGradScaledPar(f, scale, grad) on
// the shards' edge chunks. Three rounds: shift gather, broadcast and
// exponential-sum gather, broadcast and gradient normalization.
func (e *Engine) SoftMaxGradScaled(f, scale, grad []float64) (float64, Cost) {
	check("SoftMaxGradScaled", e.part.M, f, scale, grad)
	e.mu.Lock()
	defer e.mu.Unlock()
	var c Cost
	if len(f) == 0 {
		return math.Inf(-1), c
	}
	e.round(&c, func(s *shardState) {
		e.reduceEdges(s, 0, par.FoldMax, func(lo, hi int) float64 {
			return numutil.ScaledAbsMax(f, scale, lo, hi)
		})
	})
	m := e.coordVal[0]
	e.round(&c, func(s *shardState) {
		m := e.bcast(s, 0, e.edgeActive)
		e.reduceEdges(s, 1, par.FoldSum, func(lo, hi int) float64 {
			return numutil.ScaledExpSum(f, scale, grad, m, lo, hi)
		})
	})
	sum := e.coordVal[1]
	e.round(&c, func(s *shardState) {
		inv := 1 / e.bcast(s, 1, e.edgeActive)
		numutil.ScaleRange(grad, inv, e.part.EdgeLo[s.id], e.part.EdgeHi[s.id])
	})
	e.finishCost(&c)
	return m + math.Log(sum), c
}

// Residual is graph.ResidualInto on the shards' vertices: one round
// ships every boundary flow value to the vertex owners that need it,
// and each shard runs the residual kernel over its vertices on its
// local view of f. Pass bs == r == nil for plain divergence.
func (e *Engine) Residual(f, bs, div, r []float64) Cost {
	check("Residual", e.part.M, f)
	check("Residual", e.part.N, div)
	if r != nil {
		check("Residual", e.part.N, bs, r)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var c Cost
	pt := e.part
	e.round(&c, func(s *shardState) {
		fv := e.exchange(s, f, e.edgeSend, s.fMirror, pt.EdgeLo[s.id], pt.EdgeHi[s.id])
		e.g.ResidualRange(fv, bs, div, r, pt.VertLo[s.id], pt.VertHi[s.id])
	})
	e.finishCost(&c)
	return c
}

// PotentialRT is capprox.Approximator.PotentialRT: φ₂ = smax(y) for
// y = ta·R·r with node potentials π = Rᵀ·∇smax(y), executed as
// level-synchronous tree sweeps over all trees at once with the R-row
// kernels on the shards' vertex chunks. sub and pt are the caller's
// per-tree scratch (capprox.EvalScratch.Sub/PT); pi receives the
// potentials.
func (e *Engine) PotentialRT(r []float64, ta float64, sub, pt [][]float64, pi []float64) (float64, Cost) {
	check("PotentialRT", e.part.N, r, pi)
	e.checkTrees("PotentialRT", sub, pt)
	e.mu.Lock()
	defer e.mu.Unlock()
	var c Cost
	part := e.part
	e.subtreeSums(&c, r, sub)
	// Row scaling with the per-tree maxima gathered at the coordinator.
	e.round(&c, func(s *shardState) {
		lo, hi := part.VertLo[s.id], part.VertHi[s.id]
		for k, t := range e.trees {
			s.outVals[coord] = append(s.outVals[coord], capprox.RowScale(sub[k], e.scale[k], t.Root, ta, lo, hi))
		}
		e.gatherMax(s, 0)
	})
	m := e.coordVal[0]
	// Shifted exponential sums per (tree, chunk), shipped grouped by
	// tree and folded by capprox.FoldExpSums at the coordinator.
	e.round(&c, func(s *shardState) {
		m := e.bcast(s, 0, e.vertActive)
		for k, t := range e.trees {
			for ch := part.VertChunkLo[s.id]; ch < part.VertChunkHi[s.id]; ch++ {
				lo, hi := chunkRange(ch, part.VertSize, part.N)
				s.outVals[coord] = append(s.outVals[coord], capprox.RowExp(sub[k], t.Root, m, lo, hi))
			}
		}
		if s.id != coord {
			if e.vertActive(s.id) {
				e.send(s, coord)
			}
			return
		}
		K := len(e.trees)
		for j := 0; j < e.P; j++ {
			cnt := part.VertChunkHi[j] - part.VertChunkLo[j]
			if cnt <= 0 {
				continue
			}
			vals := e.recv(s, j)
			for k := 0; k < K; k++ {
				copy(e.partials[k*part.VertChunks+part.VertChunkLo[j]:], vals[k*cnt:(k+1)*cnt])
			}
		}
		e.coordVal[1] = capprox.FoldExpSums(e.partials[:K*part.VertChunks], part.VertChunks)
	})
	sum := e.coordVal[1]
	// Rᵀ: row scaling of the normalized gradient, the top-down sweeps,
	// and the per-vertex accumulation in tree order.
	e.round(&c, func(s *shardState) {
		inv := 1 / e.bcast(s, 1, e.vertActive)
		lo, hi := part.VertLo[s.id], part.VertHi[s.id]
		for k, t := range e.trees {
			capprox.RowPrep(pt[k], sub[k], e.scale[k], t.Root, inv, lo, hi)
		}
	})
	e.sweepDn(&c, pt)
	e.round(&c, func(s *shardState) {
		capprox.SumTrees(pi, pt, part.VertLo[s.id], part.VertHi[s.id])
	})
	e.finishCost(&c)
	return m + math.Log(sum), c
}

// GradientDelta is graph.GradientInto on the shards' edge chunks: one
// round ships boundary potentials to the edge owners, one runs the
// gradient kernel on each shard's local view of π with the δ partials
// gathered and folded at the coordinator.
func (e *Engine) GradientDelta(w1, invCap []float64, ta float64, pi, grad []float64) (float64, Cost) {
	check("GradientDelta", e.part.M, w1, invCap, grad)
	check("GradientDelta", e.part.N, pi)
	e.mu.Lock()
	defer e.mu.Unlock()
	var c Cost
	e.round(&c, func(s *shardState) {
		s.view = e.exchange(s, pi, e.vertSend, s.piMirror, e.part.VertLo[s.id], e.part.VertHi[s.id])
	})
	e.round(&c, func(s *shardState) {
		e.reduceEdges(s, 0, par.FoldSum, func(lo, hi int) float64 {
			return e.g.GradientRange(w1, invCap, ta, s.view, grad, lo, hi)
		})
	})
	e.finishCost(&c)
	return e.coordVal[0], c
}

// NormRb is capprox.Approximator.NormRbInto: ‖R·b‖∞ via a bottom-up
// sweep of every tree, R's row scaling, and a max fold. sub is per-tree
// scratch (len trees × N), typically the caller's EvalScratch.Sub
// between evaluations, which it overwrites.
func (e *Engine) NormRb(b []float64, sub [][]float64) (float64, Cost) {
	check("NormRb", e.part.N, b)
	e.checkTrees("NormRb", sub)
	e.mu.Lock()
	defer e.mu.Unlock()
	var c Cost
	e.subtreeSums(&c, b, sub)
	e.round(&c, func(s *shardState) {
		lo, hi := e.part.VertLo[s.id], e.part.VertHi[s.id]
		m := 0.0
		for k, t := range e.trees {
			if v := capprox.RowScale(sub[k], e.scale[k], t.Root, 1, lo, hi); v > m {
				m = v
			}
		}
		s.outVals[coord] = append(s.outVals[coord], m)
		e.gatherMax(s, 0)
	})
	e.finishCost(&c)
	return e.coordVal[0], c
}
