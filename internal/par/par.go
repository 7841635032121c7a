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
//   - Hand-offs stay warm between regions. A solve is a chain of short
//     regions, and waking a parked worker costs tens of microseconds, so
//     a worker that finishes a task polls for the next one before it
//     parks, and a caller polls its region's unfinished chunks before it
//     blocks. Both give up after pollBound polls, a count rather than a
//     time (the package reads no clock). At most GOMAXPROCS−1 workers
//     poll at once, so with one CPU nothing polls and every hand-off
//     parks and wakes.
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
	// pollBound is how many polls a worker spends looking for its next
	// task, and a caller waiting for its region's last chunks, before
	// parking (DESIGN.md §4 records the sweep that chose it).
	pollBound = 1 << 14
	// pollYield is how often a poller lets other goroutines on its P run.
	pollYield = 1 << 10
)

var (
	width   atomic.Int64 // logical parallelism degree
	running atomic.Int64 // started pool goroutines
	polling atomic.Int64 // pool goroutines polling for their next task
	tasks   = make(chan *region, 4*maxPoolWorkers)
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
			go worker()
		}
	}
}

// worker is a pool goroutine: it parks on tasks, and after each task
// polls for the next one before it parks again.
func worker() {
	for r := range tasks {
		for r != nil {
			r.run()
			r = poll()
		}
	}
}

// poll looks for a worker's next task without parking. It returns nil
// at once when GOMAXPROCS−1 workers poll already, and nil when
// pollBound polls found nothing.
func poll() *region {
	procs := runtime.GOMAXPROCS(0)
	for {
		cur := polling.Load()
		if cur >= int64(procs-1) {
			return nil
		}
		if polling.CompareAndSwap(cur, cur+1) {
			break
		}
	}
	defer polling.Add(-1)
	var r *region
	spin(procs, func() bool {
		select {
		case r = <-tasks:
			return true
		default:
			return false
		}
	})
	return r
}

// spin calls ready until it reports true, at most pollBound times,
// yielding the P every pollYield calls, and reports whether ready
// did. procs is GOMAXPROCS as the caller read it: with one CPU a poll
// could only delay the goroutine it waits for, so spin then returns
// false without calling ready.
func spin(procs int, ready func() bool) bool {
	if procs <= 1 {
		return false
	}
	for i := 1; i <= pollBound; i++ {
		if ready() {
			return true
		}
		if i%pollYield == 0 {
			runtime.Gosched()
		}
	}
	return false
}

// submit offers r to the pool without blocking. When the queue is full
// the offer is dropped — the caller participates in every parallel
// region, so dropped helpers cost parallelism, never correctness.
func submit(r *region) {
	select {
	case tasks <- r:
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

// region is one parallel call's bookkeeping, in one allocation. Chunks
// are claimed from next; left counts the unfinished ones for a polling
// caller, and done for a parked one.
type region struct {
	n, size, count int
	fn             func(i, lo, hi int)
	next           atomic.Int64
	left           atomic.Int64
	done           sync.WaitGroup
	panicked       atomic.Pointer[chunkPanic]
}

// run claims and runs chunks of r until none is left to claim.
func (r *region) run() {
	for {
		i := int(r.next.Add(1) - 1)
		if i >= r.count {
			return
		}
		lo := i * r.size
		hi := lo + r.size
		if hi > r.n {
			hi = r.n
		}
		r.chunk(i, lo, hi)
	}
}

// chunk runs chunk i, recording rather than raising its panic.
func (r *region) chunk(i, lo, hi int) {
	defer func() {
		if p := recover(); p != nil {
			r.panicked.CompareAndSwap(nil, &chunkPanic{val: p, stack: debug.Stack()})
		}
		r.done.Done()
		r.left.Add(-1)
	}()
	// After a panic the remaining chunks only drain the ticket counter
	// (their results are about to be thrown away by the re-panic), so
	// the region ends promptly.
	if r.panicked.Load() == nil {
		r.fn(i, lo, hi)
	}
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
	r := &region{n: n, size: size, count: count, fn: fn}
	r.left.Store(int64(count))
	r.done.Add(count)
	helpers := w - 1
	ensureWorkers(helpers)
	for i := 0; i < helpers; i++ {
		submit(r)
	}
	r.run()
	if !spin(runtime.GOMAXPROCS(0), func() bool { return r.left.Load() == 0 }) {
		r.done.Wait()
	}
	if p := r.panicked.Load(); p != nil {
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
