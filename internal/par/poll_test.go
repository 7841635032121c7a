package par

import (
	"bytes"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// withProcs runs the rest of the test at GOMAXPROCS procs and pool
// width workers, and restores both when it ends.
func withProcs(t testing.TB, procs, workers int) {
	prevProcs := runtime.GOMAXPROCS(procs)
	prevWorkers := SetWorkers(workers)
	t.Cleanup(func() {
		SetWorkers(prevWorkers)
		runtime.GOMAXPROCS(prevProcs)
	})
}

// awaitPolling yields until ok holds for the number of polling workers.
func awaitPolling(ok func(n int64) bool) {
	for !ok(polling.Load()) {
		runtime.Gosched()
	}
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// warmHelper returns once a worker is polling for its next task. It
// offers two-chunk regions until it sees one: a worker that runs an
// offer polls afterwards.
func warmHelper() {
	for polling.Load() == 0 {
		Do(2, func(int) {})
		runtime.Gosched()
	}
}

// With one CPU nothing polls: the caller's wait parks at once, a worker
// that ran a task parks again, and the polling count stays zero.
func TestNothingPollsOnOneCPU(t *testing.T) {
	withProcs(t, 1, 4)
	// A worker still polling from an earlier test runs out its bound.
	awaitPolling(func(n int64) bool { return n == 0 })
	calls := 0
	if spin(runtime.GOMAXPROCS(0), func() bool { calls++; return true }) || calls != 0 {
		t.Fatalf("spin called its condition %d times at GOMAXPROCS 1", calls)
	}
	if r := poll(); r != nil || polling.Load() != 0 {
		t.Fatalf("poll at GOMAXPROCS 1 took %v, polling=%d", r, polling.Load())
	}
	var seen atomic.Int64
	for rep := 0; rep < 200; rep++ {
		For(8*grain, func(lo, hi int) { seen.Add(polling.Load()) })
		if n := polling.Load(); n != 0 {
			t.Fatalf("region %d: %d workers polling at GOMAXPROCS 1", rep, n)
		}
	}
	if seen.Load() != 0 {
		t.Fatalf("chunks saw workers polling at GOMAXPROCS 1")
	}
}

// Polling is bounded: spin gives up after pollBound calls.
func TestSpinIsBounded(t *testing.T) {
	calls := 0
	if spin(2, func() bool { calls++; return false }) || calls != pollBound {
		t.Fatalf("spin called its condition %d times, want %d", calls, pollBound)
	}
	calls = 0
	if !spin(2, func() bool { calls++; return calls == 3 }) || calls != 3 {
		t.Fatalf("spin stopped after %d calls, want 3", calls)
	}
}

// After the last region every worker runs out its bound and parks, so
// an idle process burns no CPU.
func TestPollingStopsWhenIdle(t *testing.T) {
	withProcs(t, 2, 2)
	for rep := 0; rep < 20; rep++ {
		warmHelper()
		var n atomic.Int64
		For(4*grain, func(lo, hi int) { n.Add(int64(hi - lo)) })
		if n.Load() != 4*grain {
			t.Fatalf("covered %d of %d", n.Load(), 4*grain)
		}
	}
	awaitPolling(func(n int64) bool { return n == 0 })
	// Parked again, the pool still serves.
	var n atomic.Int64
	For(4*grain, func(lo, hi int) { n.Add(int64(hi - lo)) })
	if n.Load() != 4*grain {
		t.Fatalf("after parking: covered %d of %d", n.Load(), 4*grain)
	}
}

// A chunk that panics on a polling helper surfaces on the caller with
// its value, the helper keeps its place in the pool, and its polling
// slot is released.
func TestPanicOnPollingHelper(t *testing.T) {
	withProcs(t, 2, 2)
	ensureWorkers(1)
	// A send hands an offer to a parked worker before it fills the
	// channel's buffer, where a polling one looks. So every worker but
	// one is held first inside a region of its own, started on another
	// goroutine: the one left is the only worker that can take an offer,
	// and once it polls, it takes the next one from its poll (unless
	// its bound runs out in the moment between).
	held := int(running.Load()) - 1
	var in atomic.Int64
	release := make(chan struct{})
	holding := make(chan struct{})
	SetWorkers(held + 1)
	go func() {
		defer close(holding)
		Do(held+1, func(int) {
			in.Add(1)
			<-release
		})
	}()
	for in.Load() < int64(held+1) {
		runtime.Gosched()
	}
	defer func() {
		close(release)
		<-holding
	}()
	SetWorkers(2)
	warmHelper()
	// The caller's chunk waits for the helper's, so the helper runs one.
	caller := goid()
	var started atomic.Bool
	val := func() (p any) {
		defer func() { p = recover() }()
		Do(2, func(int) {
			if goid() != caller {
				started.Store(true)
				panic("helper boom")
			}
			for !started.Load() {
				runtime.Gosched()
			}
		})
		return nil
	}()
	if val != "helper boom" {
		t.Fatalf("recovered %v, want the helper's panic value", val)
	}
	var n atomic.Int64
	For(50_000, func(lo, hi int) { n.Add(int64(hi - lo)) })
	if n.Load() != 50_000 {
		t.Fatalf("pool broken after a helper panic: covered %d/50000", n.Load())
	}
	awaitPolling(func(n int64) bool { return n == 0 })
}

// Several goroutines issuing nested regions at once: results stay
// bit-identical to a one-worker run, no more than GOMAXPROCS−1 workers
// poll at any time, and -race sees the hand-offs.
func TestConcurrentNestedRegions(t *testing.T) {
	x := make([]float64, 6*grain+5)
	for i := range x {
		x[i] = math.Sin(float64(i)) * float64(i%97)
	}
	var maxPolling atomic.Int64
	sum := func() float64 {
		return Sum(len(x), func(lo, hi int) float64 {
			if n := polling.Load(); n > maxPolling.Load() {
				maxPolling.Store(n)
			}
			s := 0.0
			for i := lo; i < hi; i++ {
				s += x[i]
			}
			return s
		})
	}
	prev := SetWorkers(1)
	want := sum()
	SetWorkers(prev)
	for _, c := range []struct{ procs, workers int }{{2, 2}, {2, 4}, {4, 3}} {
		withProcs(t, c.procs, c.workers)
		maxPolling.Store(0)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 10; rep++ {
					var got [6]float64
					Do(len(got), func(i int) { got[i] = sum() })
					for i, v := range got {
						if v != want {
							t.Errorf("procs=%d workers=%d: region %d summed %v, want %v", c.procs, c.workers, i, v, want)
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		if n := maxPolling.Load(); n > int64(c.procs-1) {
			t.Errorf("procs=%d workers=%d: %d workers polled at once", c.procs, c.workers, n)
		}
	}
	awaitPolling(func(n int64) bool { return n == 0 })
}

// A region's bookkeeping is one allocation; For adds one for the closure
// that adapts its body.
func TestRegionAllocs(t *testing.T) {
	defer SetWorkers(SetWorkers(2))
	body := func(lo, hi int) {}
	For(4*grain, body)
	if a := testing.AllocsPerRun(100, func() { For(4*grain, body) }); a > 2 {
		t.Fatalf("For over 4 chunks allocates %v per region, want at most 2", a)
	}
}

var handoffSink float64

// BenchmarkRegionHandoff times one region of two chunks of fixed
// arithmetic (about 20 µs each) at the pool width GOMAXPROCS gives. Run
// it with -cpu 1,2: at one CPU both chunks run on the caller, and at two
// whatever exceeds half that time is the hand-off to a helper and back.
func BenchmarkRegionHandoff(b *testing.B) {
	defer SetWorkers(SetWorkers(0))
	var out [2]float64
	work := func(i int) {
		v := float64(i + 1)
		for k := 0; k < 8000; k++ {
			v = v*0.999 + 1e-3
		}
		out[i] = v
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Do(len(out), work)
	}
	handoffSink = out[0] + out[1]
}
