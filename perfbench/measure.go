package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"distflow"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, or
// NaN for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// mean returns the arithmetic mean of xs, or NaN for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// buildRouter times one NewRouter call on g.
func buildRouter(g *distflow.Graph, opts distflow.Options, tr *tracer, req int64) (*distflow.Router, float64, error) {
	sp := tr.begin("NewRouter", -1, req)
	t0 := time.Now()
	r, err := distflow.NewRouter(g, opts)
	d := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return nil, 0, fmt.Errorf("NewRouter: %w", err)
	}
	return r, d, nil
}

// The set-up measurement. NewRouter is first called untimed for
// setupWarmup seconds, then timed setupMinBuilds times and more until
// setupSeconds of build time have passed; setup_s is the median timed
// call. On a 2-vCPU machine the builds of a process's first second ran
// up to twice as slow as later ones (about 40 ms against 20 on the
// 300-vertex graph), and timing them swung the median of a run by up
// to a third.
const (
	setupWarmup    = 1.0
	setupMinBuilds = 5
	setupSeconds   = 1.5
)

// buildRouters calls NewRouter on g for the set-up measurement, each
// timed call after a forced collection so no build pays for its
// predecessors' garbage. It returns the last router and the timed
// calls' durations. Earlier routers are closed, which stops any shard
// goroutines they started.
func buildRouters(g *distflow.Graph, opts distflow.Options, tr *tracer) (*distflow.Router, []float64, error) {
	var times []float64
	var r *distflow.Router
	warmUntil := time.Now().Add(time.Duration(setupWarmup * float64(time.Second)))
	spent := 0.0
	for i := 0; time.Now().Before(warmUntil) || len(times) < setupMinBuilds || spent < setupSeconds; i++ {
		if r != nil {
			r.Close()
		}
		warm := time.Now().Before(warmUntil)
		if !warm {
			runtime.GC()
		}
		next, d, err := buildRouter(g, opts, tr, int64(i))
		if err != nil {
			return nil, nil, err
		}
		r = next
		if !warm {
			times = append(times, d)
			spent += d
		}
	}
	return r, times, nil
}

// flowTol is the relative tolerance of the feasibility and conservation
// checks.
const flowTol = 1e-6

// checkAnswer verifies one max-flow answer on g's current state against
// the exact optimum opt: OPT/(1+ε) ≤ Value ≤ OPT, every edge within its
// capacity, and the flow conserving with net supply Value at s and
// demand Value at t.
func checkAnswer(g *distflow.Graph, s, t int, res *distflow.Result, opt int64) error {
	if res.Degraded {
		return fmt.Errorf("%d→%d: degraded answer", s, t)
	}
	o := float64(opt)
	if res.Value > o*(1+1e-9) {
		return fmt.Errorf("%d→%d: value %v exceeds the optimum %d", s, t, res.Value, opt)
	}
	if res.Value < o/(1+epsilon)*(1-1e-9) {
		return fmt.Errorf("%d→%d: value %v below OPT/(1+ε) = %v", s, t, res.Value, o/(1+epsilon))
	}
	if len(res.Flow) != g.M() {
		return fmt.Errorf("%d→%d: flow has %d entries, graph has %d edges", s, t, len(res.Flow), g.M())
	}
	div := make([]float64, g.N())
	for e, f := range res.Flow {
		u, v, c := g.EdgeEndpoints(e)
		if math.Abs(f) > float64(c)*(1+flowTol) {
			return fmt.Errorf("%d→%d: edge %d carries %v over capacity %d", s, t, e, f, c)
		}
		div[u] += f
		div[v] -= f
	}
	tol := flowTol * math.Max(1, res.Value)
	for v, d := range div {
		want := 0.0
		switch v {
		case s:
			want = res.Value
		case t:
			want = -res.Value
		}
		if math.Abs(d-want) > tol {
			return fmt.Errorf("%d→%d: vertex %d has net outflow %v, want %v", s, t, v, d, want)
		}
	}
	return nil
}

// procSample is a snapshot of the process's allocation, GC and CPU
// counters.
type procSample struct {
	at         time.Time
	totalAlloc uint64
	numGC      uint32
	cpu        time.Duration
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// RUSAGE_SELF on a valid struct cannot fail; a failure would leave
	// the CPU time 0 and only the traced go.cpu_per_wall would show it.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return procSample{at: time.Now(), totalAlloc: ms.TotalAlloc, numGC: ms.NumGC, cpu: cpu}
}

// liveHeapMB forces a collection and returns the live heap in MB
// (10⁶ bytes). Callers keep what must count as live reachable across
// the call. The second collection empties the sync.Pool victim caches,
// whose size depends on how many solves last ran at once.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}
