// Package par is the shared worker pool behind the parallel solver
// core. It provides chunked parallel-for and reduction primitives whose
// arithmetic is independent of the worker count, so that every solver
// result is bit-identical whether it runs on one core or sixty-four —
// the property the determinism test suite pins down.
//
// Design:
//
//   - Work on [0,n) is split into chunks whose size depends ONLY on n
//     (never on the worker count). Reductions (Sum, Max) always combine
//     per-chunk partials in chunk-index order, on one goroutine, so the
//     floating-point result is a pure function of the input.
//   - Chunks are handed out by an atomic counter; idle pool workers help
//     the caller, and the caller always participates, so a For/Sum call
//     makes progress even when every pool worker is busy (nested
//     parallelism cannot deadlock).
//   - Small inputs (below one chunk) never touch the pool: the
//     GOMAXPROCS-aware sequential fallback keeps tiny graphs free of
//     scheduling overhead.
//   - SetWorkers adjusts the logical width at runtime (tests sweep it to
//     verify worker-count independence); the default is GOMAXPROCS.
package par

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

const (
	// grain is the minimum number of elements per chunk: below this,
	// goroutine handoff costs more than the loop body saves.
	grain = 2048
	// maxChunks bounds per-call scheduling overhead on huge inputs.
	maxChunks = 256
	// maxPoolWorkers caps the lazily started pool goroutines.
	maxPoolWorkers = 64
)

var (
	width   atomic.Int64 // logical parallelism degree
	running atomic.Int64 // started pool goroutines
	tasks   = make(chan func(), 4*maxPoolWorkers)
)

func init() {
	width.Store(int64(runtime.GOMAXPROCS(0)))
}

// Workers returns the current logical parallelism degree.
func Workers() int { return int(width.Load()) }

// SetWorkers sets the logical parallelism degree and returns the
// previous value. n <= 0 resets to runtime.GOMAXPROCS(0). Results of
// the par primitives do not depend on this value; only scheduling does.
func SetWorkers(n int) int {
	prev := int(width.Load())
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	width.Store(int64(n))
	return prev
}

// chunks returns the chunk size and count for n elements. It is a pure
// function of n — never of the worker count — which is what makes the
// chunked reductions deterministic under any parallelism degree.
func chunks(n int) (size, count int) {
	count = (n + grain - 1) / grain
	if count > maxChunks {
		count = maxChunks
	}
	if count < 1 {
		count = 1
	}
	size = (n + count - 1) / count
	count = (n + size - 1) / size
	return size, count
}

// ensureWorkers lazily starts pool goroutines until at least n are
// running (capped at maxPoolWorkers). Pool goroutines are never torn
// down; the cap bounds their number for the life of the process.
func ensureWorkers(n int) {
	if n > maxPoolWorkers {
		n = maxPoolWorkers
	}
	for {
		cur := running.Load()
		if cur >= int64(n) {
			return
		}
		if running.CompareAndSwap(cur, cur+1) {
			go func() {
				for f := range tasks {
					f()
				}
			}()
		}
	}
}

// submit offers f to the pool without blocking. When the queue is full
// the offer is dropped — the caller participates in every parallel
// region, so dropped helpers cost parallelism, never correctness.
func submit(f func()) {
	select {
	case tasks <- f:
	default:
	}
}

// chunkPanic carries a panic out of a parallel region: the first chunk
// to panic stores its value and the calling goroutine re-panics with it
// after the region drains (see runChunked).
type chunkPanic struct {
	val   any
	stack []byte
}

// runChunked executes fn(i, lo, hi) for every chunk i of [0,n), using up
// to Workers() goroutines (including the caller). It returns only after
// every chunk completed.
//
// Panic contract: a panic inside fn — on the calling goroutine or a
// pool helper — never crashes the process or the pool. The first
// panicking chunk's value is captured, the remaining chunks are drained
// without running fn, and the ORIGINAL panic value is re-raised on the
// calling goroutine once the region is quiescent. Callers can therefore
// recover() around any par primitive and know no chunk of that call is
// still running; the serving layer's boundary recovery depends on this.
func runChunked(n, size, count int, fn func(i, lo, hi int)) {
	w := Workers()
	if w > count {
		w = count
	}
	if w <= 1 {
		for i := 0; i < count; i++ {
			lo := i * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			fn(i, lo, hi)
		}
		return
	}
	var next atomic.Int64
	var done sync.WaitGroup
	var panicked atomic.Pointer[chunkPanic]
	done.Add(count)
	run := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= count {
				return
			}
			lo := i * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			func() {
				defer func() {
					if p := recover(); p != nil {
						panicked.CompareAndSwap(nil, &chunkPanic{val: p, stack: debug.Stack()})
					}
					done.Done()
				}()
				// After a panic the remaining chunks only drain the
				// ticket counter (their results are about to be thrown
				// away by the re-panic), so the region ends promptly.
				if panicked.Load() == nil {
					fn(i, lo, hi)
				}
			}()
		}
	}
	helpers := w - 1
	ensureWorkers(helpers)
	for i := 0; i < helpers; i++ {
		submit(run)
	}
	run()
	done.Wait()
	if p := panicked.Load(); p != nil {
		panic(p.val)
	}
}

// Sequential reports whether a For/Sum/Max call over n elements would
// run entirely on the calling goroutine (input below one chunk, or the
// pool width is 1). Hot sweeps use it to take an inline loop instead of
// a closure — keeping the sequential fallback allocation-free — without
// duplicating the scheduling policy.
func Sequential(n int) bool {
	if n <= 0 {
		return true
	}
	_, count := chunks(n)
	return count <= 1 || Workers() <= 1
}

// For runs body over a partition of [0,n) in parallel. body must be
// safe to run concurrently on disjoint ranges. Element-wise bodies
// (out[i] depends only on index i) produce identical results at every
// worker count by construction.
func For(n int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	size, count := chunks(n)
	if count <= 1 || Workers() <= 1 {
		body(0, n)
		return
	}
	runChunked(n, size, count, func(_, lo, hi int) { body(lo, hi) })
}

// Do runs body(i) for every i in [0,n) in parallel, one task per index.
// Intended for coarse-grained units (whole queries, whole tree samples)
// where per-index dispatch overhead is negligible; DoSized drops the
// pool for units too small to pay for it.
func Do(n int, body func(i int)) {
	if n <= 0 {
		return
	}
	w := Workers()
	if n == 1 || w <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	runChunked(n, 1, n, func(i, _, _ int) { body(i) })
}

// DoSized is Do over n units of size elements each (per-tree passes
// over trees of size vertices, say). When the units together span at
// most one chunk — Sequential(n·size), the rule For applies to a range —
// they run inline on the caller, because handing so little work to the
// pool costs more than the work.
func DoSized(n, size int, body func(i int)) {
	if !Sequential(n * size) {
		Do(n, body)
		return
	}
	for i := 0; i < n; i++ {
		body(i)
	}
}

// partialPool recycles the per-chunk partial buffers of Sum and Max.
// Reductions sit on the solver's per-iteration hot path (several per
// gradient evaluation), so a fresh []float64 per call is measurable
// allocation traffic; chunk counts are capped at maxChunks, so every
// pooled buffer is full size. The pool stores *[]float64 so Get/Put
// move a pointer instead of boxing a slice header per call
// (staticcheck SA6002). The buffer only carries data within one call —
// pooling cannot affect results.
var partialPool = sync.Pool{
	New: func() any {
		b := make([]float64, maxChunks)
		return &b
	},
}

// Sum reduces body over a partition of [0,n): body returns the partial
// sum of its range, and the partials are combined in chunk-index order
// on the calling goroutine. Because the partition depends only on n,
// the result is bit-identical at every worker count — including the
// sequential fallback, which still evaluates chunk by chunk.
func Sum(n int, body func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	size, count := chunks(n)
	if count == 1 {
		return body(0, n)
	}
	pp := partialPool.Get().(*[]float64)
	partial := *pp
	runChunked(n, size, count, func(i, lo, hi int) { partial[i] = body(lo, hi) })
	s := FoldSum(partial[:count])
	partialPool.Put(pp)
	return s
}

// FoldSum is Sum's combination of per-chunk partials: added in
// chunk-index order, a single partial returned untouched. Code that
// computes the partials elsewhere (the internal/shard coordinator,
// which gathers them from the shards owning the chunks) folds them with
// this function to reproduce Sum bit for bit.
func FoldSum(partials []float64) float64 {
	if len(partials) == 1 {
		return partials[0]
	}
	s := 0.0
	for _, p := range partials {
		s += p
	}
	return s
}

// Grid exposes the chunk grid Sum, Max, and For partition [0,n) into.
// size and count are pure functions of n — never of the worker count —
// which is the whole determinism argument for the package. Code that
// must reproduce a reduction bit-for-bit from partials computed
// elsewhere (the internal/shard coordinator combining per-shard chunk
// partials) aligns its ownership ranges to this grid: combining the
// same per-chunk partials in the same chunk-index order is the same
// float expression, so the sharded result equals the par result
// exactly.
func Grid(n int) (size, count int) { return chunks(n) }

// Max reduces body over a partition of [0,n) taking the maximum of the
// per-chunk results. Returns -Inf for n <= 0.
func Max(n int, body func(lo, hi int) float64) float64 {
	if n <= 0 {
		return math.Inf(-1)
	}
	size, count := chunks(n)
	if count == 1 {
		return body(0, n)
	}
	pp := partialPool.Get().(*[]float64)
	partial := *pp
	runChunked(n, size, count, func(i, lo, hi int) { partial[i] = body(lo, hi) })
	m := FoldMax(partial[:count])
	partialPool.Put(pp)
	return m
}

// FoldMax is Max's combination of per-chunk partials, the counterpart
// of FoldSum.
func FoldMax(partials []float64) float64 {
	if len(partials) == 1 {
		return partials[0]
	}
	m := math.Inf(-1)
	for _, p := range partials {
		if p > m {
			m = p
		}
	}
	return m
}
