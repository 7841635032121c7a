// Package shard executes the solver's per-evaluation operators —
// soft-max gradient, residual, the R/Rᵀ tree sweeps, edge gradient, and
// ‖Rb‖∞ — across P shards under a synchronous round barrier (DESIGN.md
// §13). With P > 1 each shard is a goroutine with private mirrors of the
// boundary state it does not own, exchanging messages over a channel
// mesh; an engine never runs more shards than the graph has chunks, and
// a one-shard engine runs every superstep on the caller's goroutine. The
// arithmetic is not here: each operator runs the kernels of its flat
// entry point (numutil, graph, capprox) on the chunks a shard owns, and
// the engine adds ownership, exchange, gather/broadcast, the sweep
// schedule and the coordinator's fold. It measures what
// internal/congest otherwise only accounts: rounds of synchronous
// exchange, messages, and payload bytes per operator application.
//
// Determinism contract: every operator produces results bit-identical
// to the single-address-space path at every (P, worker-count)
// combination. Two mechanisms carry the proof:
//
//   - Same kernel, same fold: shard ownership ranges are unions of whole
//     par.Grid chunks, each chunk's partial comes from the flat path's
//     kernel, and the coordinator folds the partials in global chunk
//     order with the function the flat reduction folds with
//     (par.FoldSum/par.FoldMax, capprox.FoldExpSums).
//   - Tree sweeps run level-synchronously with statically scheduled
//     application order (descending child position, the sequential
//     sweep's order), so each accumulator sees the same additions in
//     the same order. A one-shard engine runs the sequential sweeps
//     themselves.
package shard

import (
	"fmt"

	"distflow/internal/par"
)

// Partition assigns contiguous vertex and edge ranges to P shards.
// Both splits are aligned to the canonical par.Grid chunk boundaries:
// a shard owns whole chunks, never a fraction of one, so any chunked
// reduction the baseline performs can be reproduced exactly from
// per-shard partials. When a grid has fewer chunks than shards, the
// trailing shards own all of its chunks and the leading shards none.
// NewEngine never runs more shards than the larger grid has chunks, so
// each of its shards owns a chunk of at least one kind; the smaller
// grid can still leave leading shards, the coordinator among them,
// without vertices or without edges.
type Partition struct {
	P    int
	N, M int

	// VertSize/VertChunks are par.Grid(N); EdgeSize/EdgeChunks par.Grid(M).
	VertSize, VertChunks int
	EdgeSize, EdgeChunks int

	// Shard k owns vertices [VertLo[k], VertHi[k]) — chunk indices
	// [VertChunkLo[k], VertChunkHi[k]) — and likewise for edges. The
	// two splits are independent: a vertex and its incident edges
	// usually live on different shards, which is exactly what the
	// boundary exchange is for.
	VertLo, VertHi           []int
	EdgeLo, EdgeHi           []int
	VertChunkLo, VertChunkHi []int
	EdgeChunkLo, EdgeChunkHi []int

	vertOwner []int8 // per vertex chunk
	edgeOwner []int8 // per edge chunk
}

// maxShards bounds P: ownership is stored as int8 per chunk and the
// sweeps' receive masks as one uint64 per level.
const maxShards = 64

// grid is par.Grid guarded for empty ranges (par reductions never see
// n <= 0; the partition can, e.g. an edgeless test graph).
func grid(n int) (size, count int) {
	if n <= 0 {
		return 1, 0
	}
	return par.Grid(n)
}

// splitChunks assigns chunk index ranges [lo[k], hi[k]) to P shards,
// evenly by the standard integer split.
func splitChunks(count, p int) (lo, hi []int) {
	lo = make([]int, p)
	hi = make([]int, p)
	for k := 0; k < p; k++ {
		lo[k] = k * count / p
		hi[k] = (k + 1) * count / p
	}
	return lo, hi
}

// activeShards returns how many of p requested shards an engine over n
// vertices and m edges runs: at most one per chunk of the larger of the
// two grids, because a shard that would own no chunk has nothing to
// compute. It reads only the graph's size. An out-of-range p is
// returned as is, for NewPartition to reject.
func activeShards(n, m, p int) int {
	_, vc := grid(n)
	_, ec := grid(m)
	if c := max(vc, ec, 1); p > c && p <= maxShards {
		return c
	}
	return p
}

// NewPartition splits n vertices and m edges across p shards.
func NewPartition(n, m, p int) (*Partition, error) {
	if p < 1 || p > maxShards {
		return nil, fmt.Errorf("shard: P must be in [1,%d], got %d", maxShards, p)
	}
	pt := &Partition{P: p, N: n, M: m}
	pt.VertSize, pt.VertChunks = grid(n)
	pt.EdgeSize, pt.EdgeChunks = grid(m)
	pt.VertChunkLo, pt.VertChunkHi = splitChunks(pt.VertChunks, p)
	pt.EdgeChunkLo, pt.EdgeChunkHi = splitChunks(pt.EdgeChunks, p)
	pt.VertLo = make([]int, p)
	pt.VertHi = make([]int, p)
	pt.EdgeLo = make([]int, p)
	pt.EdgeHi = make([]int, p)
	pt.vertOwner = make([]int8, pt.VertChunks)
	pt.edgeOwner = make([]int8, pt.EdgeChunks)
	for k := 0; k < p; k++ {
		pt.VertLo[k] = min(pt.VertChunkLo[k]*pt.VertSize, n)
		pt.VertHi[k] = min(pt.VertChunkHi[k]*pt.VertSize, n)
		pt.EdgeLo[k] = min(pt.EdgeChunkLo[k]*pt.EdgeSize, m)
		pt.EdgeHi[k] = min(pt.EdgeChunkHi[k]*pt.EdgeSize, m)
		for c := pt.VertChunkLo[k]; c < pt.VertChunkHi[k]; c++ {
			pt.vertOwner[c] = int8(k)
		}
		for c := pt.EdgeChunkLo[k]; c < pt.EdgeChunkHi[k]; c++ {
			pt.edgeOwner[c] = int8(k)
		}
	}
	return pt, nil
}

// VertOwner returns the shard owning vertex v.
func (pt *Partition) VertOwner(v int) int { return int(pt.vertOwner[v/pt.VertSize]) }

// EdgeOwner returns the shard owning edge e.
func (pt *Partition) EdgeOwner(e int) int { return int(pt.edgeOwner[e/pt.EdgeSize]) }

// VertCount returns the number of vertices shard k owns.
func (pt *Partition) VertCount(k int) int { return pt.VertHi[k] - pt.VertLo[k] }

// EdgeCount returns the number of edges shard k owns.
func (pt *Partition) EdgeCount(k int) int { return pt.EdgeHi[k] - pt.EdgeLo[k] }
