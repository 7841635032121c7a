package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"distflow"
)

// The GNP instance of gnp-cold: n = 2500, expected degree 8 plus the
// attachment tree, capacities uniform in [1, 64], drawn from seed 3 and
// served with the router seed the BENCH_*.json documents used. The
// instance is pinned rather than drawn from --seed: with the graph or
// the router seed varied, about a third of the instances make cold
// queries escalate (α raised to 8, 3–80 s per query; see README.md),
// which no bounded run can measure steadily.
//
// The queries cycle through a pinned pool of gnpPool distinct pairs in
// an order drawn from --seed. About 110 fit in a run, so every run asks
// nearly the same pairs; with pairs drawn per seed, the mix moved the
// median query's work by ±5% and query_p90_s by ±15% between seeds. A
// pair recurs only after gnpPool-1 others, long after the 64-entry
// warm cache evicted it, so every query stays cold.
const (
	gnpN         = 2500
	gnpDegree    = 8
	gnpMaxCap    = 64
	gnpSeed      = 3
	gnpSLOLimit  = 1.0
	gnpPool      = 128
	replayCount  = 12 // answers replayed per traced run
	warmUpReq    = -1 // request id of the unmeasured warm-up calls
	kernelCalls  = 40 // minimum timed calls per kernel
	epochReplays = 5  // fork and publish replays per traced run
)

// gnpInstance returns the pinned n-vertex GNP instance (at most 300
// vertices for smoke tests) and the router options it is served with.
func gnpInstance(n int, tiny bool) (*edgeList, distflow.Options) {
	if tiny {
		n = min(n, 300)
	}
	return trackedGNP(n, gnpDegree, gnpMaxCap, gnpSeed), distflow.Options{Seed: gnpSeed}
}

// pairSource draws distinct ordered s-t pairs on demand; distinct
// ordered pairs never share a warm-cache entry.
type pairSource struct {
	n    int
	rng  *rand.Rand
	seen map[distflow.STPair]bool
}

func newPairSource(n int, rng *rand.Rand) *pairSource {
	return &pairSource{n: n, rng: rng, seen: map[distflow.STPair]bool{}}
}

func (ps *pairSource) next() distflow.STPair {
	for {
		p := distflow.STPair{S: ps.rng.Intn(ps.n), T: ps.rng.Intn(ps.n)}
		if p.S != p.T && !ps.seen[p] {
			ps.seen[p] = true
			return p
		}
	}
}

// runGNPCold is the gnp-cold workload: one closed-loop client sends
// the pool's s-t pairs through Router.MaxFlow on the flat path, so
// every query misses the warm cache and runs a cold solve. Batches of
// the write probe run between queries, outside the measured wall.
func runGNPCold(s *session) error {
	el, opts := gnpInstance(gnpN, s.cfg.tiny)
	g := el.build()
	r, builds, err := buildRouters(g, opts, s.tr)
	if err != nil {
		return err
	}
	defer r.Close()
	pairs := newPairSource(el.n, newRand(gnpSeed))

	// One unmeasured query pays the router's lazy set-up (the residual
	// routing tree and pooled workspaces), which a serving router pays
	// once, not per query.
	warm := pairs.next()
	pool := make([]distflow.STPair, gnpPool)
	for i := range pool {
		pool[i] = pairs.next()
	}
	rng := newRand(s.cfg.seed)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	sp := s.tr.begin("Router.MaxFlow", -1, warmUpReq)
	warmRes, err := r.MaxFlow(warm.S, warm.T)
	s.tr.end(sp)
	if err != nil {
		return fmt.Errorf("warm-up query: %w", err)
	}

	log := &opLog{sloLimit: gnpSLOLimit}
	wp, err := s.newWriteProbe(log)
	if err != nil {
		return err
	}
	dur := time.Duration(s.cfg.seconds * float64(time.Second))
	log.before = sampleProc()
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		p := pool[i%len(pool)]
		sp := s.tr.begin("Router.MaxFlow", -1, int64(i))
		t0 := time.Now()
		res, err := r.MaxFlow(p.S, p.T)
		d := time.Since(t0).Seconds()
		s.tr.end(sp)
		_ = log.pause(func() error {
			s.recordQuery(log, g, r, p, res, err, d, sp)
			wp.run(probePerQuery)
			return nil
		})
	}
	log.wall = (time.Since(start) - log.pausedWall()).Seconds()
	log.after = sampleProc()
	wp.close()
	heap := liveHeapMB()
	runtime.KeepAlive(r)

	if s.cfg.trace {
		s.routerLayers(r)
		if err := s.flatReplays(el, opts, r, warm, warmRes, sp, log.answers); err != nil {
			return err
		}
	}
	s.fingerprint(log.answers)
	s.finish(log, builds, heap)
	return nil
}

// flatReplays is the traced run's replay of the flat solver for the
// read-only workloads: it verifies a replica rebuilt from the same
// inputs reproduces the router's α and, for up to replayCount cold
// answers, its Value and Iterations bit for bit, then derives the
// solver's layer times from the replays and times the kernels on the
// same arrays. warm and warmRes are the pair and answer of the
// unmeasured warm-up query, replayed first so the replica's solver pays
// the same lazy set-up the router paid; when the measured phase has no
// cold answer (a smoke-test run), its replay is the only sample.
// warmSpan is the warm-up call's span.
func (s *session) flatReplays(el *edgeList, opts distflow.Options, r *distflow.Router, warm distflow.STPair, warmRes *distflow.Result, warmSpan int, answers []answer) error {
	rp, err := newReplica(el, opts, s.tr, -1)
	if err != nil {
		return err
	}
	if rp.apx.Alpha != r.Alpha() {
		s.mismatch = append(s.mismatch, fmt.Sprintf("replica α %v, router α %v", rp.apx.Alpha, r.Alpha()))
	}
	sp := s.tr.begin("replay:sherman.Solver.MaxFlowCtx", warmSpan, warmUpReq)
	first, err := rp.solve(rp.solver, warm.S, warm.T)
	s.tr.end(sp)
	if err != nil {
		return err
	}
	s.checkReplay(first, warm, warmRes.Value, warmRes.Iterations)
	var cold []int
	for i, a := range answers {
		if a.ok && !a.warm {
			cold = append(cold, i)
		}
	}
	if len(cold) == 0 {
		answers = []answer{{s: warm.S, t: warm.T, value: warmRes.Value, iterations: warmRes.Iterations, span: warmSpan}}
		cold = []int{0}
	}
	picks := evenly(cold, replayCount)
	var solveS, evals, outer, overhead float64
	var last replay
	var lastPair distflow.STPair
	lastSpan := -1
	for _, i := range picks {
		a := answers[i]
		sp := s.tr.begin("replay:sherman.Solver.MaxFlowCtx", a.span, int64(i))
		rep, err := rp.solve(rp.solver, a.s, a.t)
		s.tr.end(sp)
		if err != nil {
			return err
		}
		s.checkReplay(rep, distflow.STPair{S: a.s, T: a.t}, a.value, a.iterations)
		solveS += rep.seconds
		evals += rep.evals
		outer += float64(rep.res.Outer)
		overhead += a.callS - rep.seconds
		last, lastPair, lastSpan = rep, distflow.STPair{S: a.s, T: a.t}, sp
	}
	k := float64(len(picks))
	l := s.layer
	l["sherman.solve_s"] = solveS / k
	l["sherman.evals_per_query"] = evals / k
	l["sherman.outer_per_query"] = outer / k
	l["sherman.eval_s"] = solveS / evals
	l["router.overhead_s"] = overhead / k
	s.notef("replayed %d cold answers; all bit for bit: %v", len(picks), len(s.mismatch) == 0)
	return s.kernelLayers(rp, last, lastPair, nil, lastSpan)
}

// evenly picks up to k elements of xs spread evenly across it.
func evenly(xs []int, k int) []int {
	if len(xs) <= k {
		return xs
	}
	out := make([]int, k)
	for i := range out {
		out[i] = xs[i*len(xs)/k]
	}
	return out
}
