package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"distflow"
)

// serve-zipf's traffic: open-loop requests at a fixed rate with Poisson
// gaps, pairs drawn with Zipf popularity from a pool twice the warm
// cache's 64 entries. The graph is the GNP instance at 150 vertices, so
// a miss holds the drain loop for ~0.02 s. At 2500 vertices it holds it
// for ~0.3 s and the median flipped between the hit and the miss mode
// from seed to seed (README.md).
//
// serve_p90_s sits among the misses, and the hits that wait behind
// them, so it follows the speed of single-core cold solves, which the
// shared 2-vCPU machine the bounds were measured on varies by ±20%
// from minute to minute; queueing amplifies that. At 300 vertices and
// 20 requests/s the 90th percentile spread by 0.12–0.33 between sets
// of runs. Halving the graph halves the solve, so the rate doubles at
// the same miss load: twice the samples. Under injected CPU contention
// the spread fell from 0.25 to 0.15, matching gnp-cold's query_p50_s
// under the same contention; on the real machine it still breaks its
// bound in some sets of runs (README.md gives the measurements).
//
// The exponent gave the 78% warm-hit share of the prototype that sized
// this workload on 300 vertices at 20 requests/s (1.1 gave 77–82%); at
// 40 requests/s twice the requests share the same first misses of the
// pool's tail, and the share is 82–84%. Each run prints its "miss
// load": misses per second over the cold solves per second of its
// cache fill.
const (
	serveN        = 150
	servePool     = 128
	serveRate     = 40.0  // requests per second
	serveZipf     = 1.1   // popularity exponent
	serveSLOLimit = 0.012 // seconds, below nearly every cold solve
)

// request is one open-loop request's record, written only by the
// goroutine that sends it.
type request struct {
	pair      distflow.STPair
	opt       int64
	due, sent time.Time
	done      time.Time
	span      int
	res       distflow.Result // Flow dropped once checked
	err       error           // call error
	checkErr  error
}

// runServeZipf is the serve-zipf workload: a GNP graph behind a
// distflow.Server with default ServeOptions, no deadlines and no writes
// while serving. One generator goroutine releases each request at its
// due time to a goroutine parked for it; latency is timed from the due
// time. The write probe runs before the open loop.
func runServeZipf(s *session) error {
	el, opts := gnpInstance(serveN, s.cfg.tiny)
	g := el.build()
	r, builds, err := buildRouters(g, opts, s.tr)
	if err != nil {
		return err
	}
	defer r.Close()
	srv := distflow.NewServer(r, distflow.ServeOptions{})

	// The pool is pinned like the graph: with a pool drawn per seed,
	// the cold-solve times of its tail moved serve_p90_s by ±20%
	// between seeds. --seed draws the arrivals and the request order.
	rng := newRand(s.cfg.seed)
	pairs := newPairSource(el.n, newRand(gnpSeed))
	warm := pairs.next()
	pool := make([]distflow.STPair, servePool)
	opt := make([]int64, servePool)
	for i := range pool {
		pool[i] = pairs.next()
		sp := s.tr.begin("check:ExactMaxFlow", -1, int64(i))
		opt[i], _ = distflow.ExactMaxFlow(g, pool[i].S, pool[i].T)
		s.tr.end(sp)
	}
	wsp := s.tr.begin("Server.MaxFlow", -1, warmUpReq)
	warmRes, err := srv.MaxFlow(warm.S, warm.T)
	s.tr.end(wsp)
	if err != nil {
		return fmt.Errorf("warm-up request: %w", err)
	}
	// A serving router runs with a full warm cache: fill it with the
	// cache-sized head of the popularity ranking before the measured
	// phase, so the run measures steady-state hits, misses and
	// evictions rather than the cold start.
	cached := pool[:servePool/2]
	sp := s.tr.begin("Router.MaxFlowBatch", -1, warmUpReq)
	t0 := time.Now()
	fill, err := r.MaxFlowBatch(cached)
	solvesPerS := float64(len(cached)) / time.Since(t0).Seconds()
	s.tr.end(sp)
	if err != nil {
		return fmt.Errorf("filling the warm cache: %w", err)
	}
	// Which requests hit depends on timing, so the fingerprint sums the
	// cache fill's cold answers.
	var filled []answer
	for _, res := range fill {
		filled = append(filled, answer{value: res.Value, iterations: res.Iterations, gradient: res.RoundsByPhase["gradient"], bytes: res.Bytes})
	}
	s.fingerprint(filled)

	// The write probe runs on the gnp-cold instance (on this graph an
	// update takes ~0.3 ms, and calls that short spread by a third
	// between runs on a 2-vCPU machine), and before the open loop: after
	// its mostly idle 36 s the same probe spread by a third too.
	log := &opLog{sloLimit: serveSLOLimit}
	wp, err := s.newWriteProbe(log)
	if err != nil {
		return err
	}
	probeFor := time.Duration(probeSeconds * float64(time.Second))
	if s.cfg.tiny {
		probeFor /= 10
	}
	for t0 := time.Now(); time.Since(t0) < probeFor; {
		wp.run(1)
	}
	wp.close()

	count := max(1, int(serveRate*s.cfg.seconds))
	at := poissonArrivals(count, s.cfg.seconds, rng)
	ranks := zipfRanks(servePool, count, serveZipf, rng)
	reqs := make([]request, count)
	for i := range reqs {
		reqs[i].pair, reqs[i].opt = pool[ranks[i]], opt[ranks[i]]
	}

	st0 := srv.Stats()
	gates := make([]chan struct{}, count)
	var wg sync.WaitGroup
	for i := range reqs {
		gates[i] = make(chan struct{})
		wg.Add(1)
		go func(rq *request, gate chan struct{}, i int) {
			defer wg.Done()
			<-gate
			rq.sent = time.Now()
			rq.span = s.tr.begin("Server.MaxFlowCtx", -1, int64(i))
			res, err := srv.MaxFlowCtx(context.Background(), rq.pair.S, rq.pair.T)
			rq.done = time.Now()
			s.tr.end(rq.span)
			rq.err = err
			if err == nil {
				// The server hands one *Result to every coalesced waiter:
				// read it, never write it.
				rq.checkErr = checkAnswer(g, rq.pair.S, rq.pair.T, res, rq.opt)
				rq.res = *res
				rq.res.Flow = nil
			}
		}(&reqs[i], gates[i], i)
	}
	log.before = sampleProc()
	start := time.Now()
	for i := range reqs {
		reqs[i].due = start.Add(time.Duration(at[i] * float64(time.Second)))
		time.Sleep(time.Until(reqs[i].due))
		close(gates[i])
	}
	wg.Wait()
	log.after = sampleProc()
	st1 := srv.Stats()

	var lags []float64
	last := start
	for i := range reqs {
		rq := &reqs[i]
		if rq.done.After(last) {
			last = rq.done
		}
		lags = append(lags, rq.sent.Sub(rq.due).Seconds())
		res, err := &rq.res, rq.checkErr
		if rq.err != nil {
			res, err = nil, rq.err
		}
		s.record(log, r, rq.pair, res, err, rq.opt, rq.done.Sub(rq.sent).Seconds(), rq.done.Sub(rq.due).Seconds(), rq.span)
	}
	log.wall = last.Sub(start).Seconds()
	heap := liveHeapMB()
	runtime.KeepAlive(srv)

	// A miss on a pair that was answered before is a miss the LRU
	// eviction caused.
	hits, evicted := 0, 0
	answered := map[distflow.STPair]bool{}
	for _, p := range cached {
		answered[p] = true
	}
	for _, a := range log.answers {
		p := distflow.STPair{S: a.s, T: a.t}
		if a.warm {
			hits++
		} else if answered[p] {
			evicted++
		}
		answered[p] = true
	}
	queries := float64(st1.Queries - st0.Queries)
	coalesced := float64(st1.Coalesced - st0.Coalesced)
	batches := float64(st1.Batches - st0.Batches)
	s.notef("requests %d: warm hits %d, coalesced %.0f, misses of evicted pairs %d, batches %.0f, pairs per batch %.2f",
		count, hits, coalesced, evicted, batches, (queries-coalesced)/batches)
	s.notef("miss load %.2f: %.1f misses/s against %.1f cold solves/s on the cache fill",
		serveRate*float64(count-hits)/float64(count)/solvesPerS, serveRate*float64(count-hits)/float64(count), solvesPerS)
	if s.cfg.trace {
		s.routerLayers(r)
		s.layer["server.coalesced_share"] = coalesced / queries
		s.layer["server.pairs_per_batch"] = (queries - coalesced) / batches
		s.layer["loadgen.lag_p90_s"] = percentile(lags, 0.9)
		if err := s.flatReplays(el, opts, r, warm, warmRes, wsp, log.answers); err != nil {
			return err
		}
	}
	s.finish(log, builds, heap)
	return nil
}
