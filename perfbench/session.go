package main

import (
	"fmt"
	"math/rand"
	"time"

	"distflow"
)

// session is the state of one benchmark invocation.
type session struct {
	cfg config
	tr  *tracer // nil unless traced

	// attempted and failed count operations: queries, requests and
	// update batches. A failure is an error, a refusal, or an answer
	// that fails the correctness check.
	attempted, failed int
	// mismatch lists replays that did not reproduce the router's answer;
	// any entry makes the run incorrect.
	mismatch []string

	e2e   map[string]float64
	layer map[string]float64
	notes []string
}

func newSession(cfg config) *session {
	s := &session{cfg: cfg, e2e: map[string]float64{}, layer: map[string]float64{}}
	if cfg.trace {
		s.tr = newTracer()
		// A layer the workload does not exercise reports 0.
		for _, d := range perLayer {
			s.layer[d.name] = 0
		}
	}
	return s
}

// notef records a line printed before the result.
func (s *session) notef(format string, args ...any) {
	s.notes = append(s.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed operation and keeps its reason for the log.
func (s *session) fail(err error) {
	s.failed++
	if s.failed <= 5 {
		s.notef("FAILED: %v", err)
	}
}

// answer is what the benchmark keeps of one max-flow answer once its
// correctness check ran; the flow vector itself is dropped.
type answer struct {
	s, t        int
	value       float64
	ok          bool    // passed the correctness check
	callS       float64 // seconds inside the API call
	serveS      float64 // seconds from the request's due time to the answer
	ratio       float64 // value / OPT
	rounds      float64 // flow-phase CONGEST rounds
	iterations  int
	restarts    int
	escalations int
	warm        bool
	bytes       int64
	messages    int64
	measured    int64
	gradient    int64 // gradient-phase rounds, a fixed charge per evaluation
	span        int   // the call's span, -1 untraced
}

// fingerprintCount is how many answers the fingerprint sums: few enough
// that every full run has them.
const fingerprintCount = 20

// fingerprint prints sums over the first fingerprintCount answers that
// repeat exactly for a fixed seed: value, iterations, evaluations (as
// gradient-phase rounds) and cross-shard bytes.
func (s *session) fingerprint(answers []answer) {
	var value float64
	var n, its int
	var grad, bytes int64
	for _, a := range answers {
		if n == fingerprintCount {
			break
		}
		n++
		value += a.value
		its += a.iterations
		grad += a.gradient
		bytes += a.bytes
	}
	s.notef("fingerprint: answers=%d value_sum=%.17g iterations=%d gradient_rounds=%d bytes=%d", n, value, its, grad, bytes)
}

// opLog collects the operations of a run.
type opLog struct {
	answers  []answer
	updates  []float64 // seconds per update call
	upd      updateTotals
	wall     float64 // seconds of the measured phase
	before   procSample
	after    procSample
	paused   procSample // summed counters of paused work, at its wall time
	sloLimit float64    // seconds; answers within it count toward serve_slo_share
}

// pause runs fn inside the measured phase but outside its accounts:
// its wall time, CPU time, allocations and collections are summed in
// log.paused and left out of the run's rates. Checks, write-probe
// batches and rebuilds run paused.
func (log *opLog) pause(fn func() error) error {
	p0 := sampleProc()
	err := fn()
	p1 := sampleProc()
	log.paused.at = log.paused.at.Add(p1.at.Sub(p0.at))
	log.paused.cpu += p1.cpu - p0.cpu
	log.paused.totalAlloc += p1.totalAlloc - p0.totalAlloc
	log.paused.numGC += p1.numGC - p0.numGC
	return err
}

// pausedWall returns the wall time of the paused work.
func (log *opLog) pausedWall() time.Duration { return log.paused.at.Sub(time.Time{}) }

// updateTotals sums the tree work of the update calls.
type updateTotals struct {
	dirty, swept, resampled, rebuilds int
}

func (u *updateTotals) add(res *distflow.UpdateResult) {
	u.dirty += res.DirtyTrees
	u.swept += res.SweptTrees
	u.resampled += res.ResampledTrees
	if res.Rebuilt {
		u.rebuilds++
	}
}

// record logs one answer. res is nil when the call failed with err;
// otherwise err is the verdict of the answer's correctness check, which
// ran after the call's timing ended. opt is the exact optimum.
func (s *session) record(log *opLog, r *distflow.Router, p distflow.STPair, res *distflow.Result, err error, opt int64, callS, serveS float64, span int) {
	s.attempted++
	a := answer{s: p.S, t: p.T, callS: callS, serveS: serveS, span: span}
	if res != nil {
		a.value = res.Value
		a.ratio = res.Value / float64(opt)
		a.rounds = float64(res.Rounds - r.ConstructionRounds())
		a.iterations, a.restarts, a.escalations = res.Iterations, res.Restarts, res.Escalations
		a.warm = res.WarmStarted
		a.bytes, a.messages, a.measured = res.Bytes, res.Messages, res.MeasuredRounds
		a.gradient = res.RoundsByPhase["gradient"]
		a.ok = err == nil
	}
	if err != nil {
		s.fail(fmt.Errorf("query %d→%d: %w", p.S, p.T, err))
	}
	log.answers = append(log.answers, a)
}

// recordQuery checks one closed-loop answer against the exact optimum
// on the graph's current state and logs it.
func (s *session) recordQuery(log *opLog, g *distflow.Graph, r *distflow.Router, p distflow.STPair, res *distflow.Result, err error, callS float64, span int) {
	var opt int64
	if err == nil {
		sp := s.tr.child("check:ExactMaxFlow", span)
		opt, _ = distflow.ExactMaxFlow(g, p.S, p.T)
		s.tr.end(sp)
		err = checkAnswer(g, p.S, p.T, res, opt)
	} else {
		res = nil
	}
	// In a closed loop a request is due when the previous answer
	// arrived, so its serve latency is its call latency.
	s.record(log, r, p, res, err, opt, callS, callS, span)
}

// epsilon is the accuracy every workload asks for (the library default).
const epsilon = 0.5

// timeUpdate runs one update call, logging its latency and tree work.
func (s *session) timeUpdate(log *opLog, name string, req int64, update func() (*distflow.UpdateResult, error)) {
	s.attempted++
	sp := s.tr.begin(name, -1, req)
	t0 := time.Now()
	res, err := update()
	log.updates = append(log.updates, time.Since(t0).Seconds())
	s.tr.end(sp)
	if err != nil {
		s.fail(fmt.Errorf("%s batch %d: %w", name, req, err))
		return
	}
	log.upd.add(res)
}

// writeProbe is the write probe of the read-only workloads: batches of
// probeEdits capacity edits on random edges of the gnp-cold instance,
// new capacities uniform in [1, gnpMaxCap], applied to a router of its
// own so that the measured router's graph and epochs stay untouched.
type writeProbe struct {
	s    *session
	log  *opLog
	r    *distflow.Router
	m    int
	rng  *rand.Rand
	next int64 // request id of the next timed batch
}

// The write probe's batches. gnp-cold applies probePerQuery timed
// batches after each query, outside the measured wall, so the probe
// samples the whole measured phase: run in one block of half a second,
// its 90th percentile followed any slow second of the machine and
// spread by up to 0.4 between runs. serve-zipf cannot interleave writes
// with its open loop and applies timed batches for probeSeconds before
// it. The first probeWarmup batches are not timed: they pay the update
// path's lazy set-up.
const (
	probeEdits    = 20
	probeWarmup   = 30
	probePerQuery = 3
	probeSeconds  = 2.0
)

// newWriteProbe builds the probe's router and applies the warm-up
// batches. Timed batches are logged in log.
func (s *session) newWriteProbe(log *opLog) (*writeProbe, error) {
	el, opts := gnpInstance(gnpN, s.cfg.tiny)
	g := el.build()
	r, _, err := buildRouter(g, opts, s.tr, warmUpReq)
	if err != nil {
		return nil, err
	}
	wp := &writeProbe{s: s, log: log, r: r, m: g.M(), rng: newRand(s.cfg.seed)}
	for i := 0; i < probeWarmup; i++ {
		sp := s.tr.begin("UpdateCapacities", -1, warmUpReq)
		_, err := r.UpdateCapacities(wp.batch())
		s.tr.end(sp)
		if err != nil {
			r.Close()
			return nil, fmt.Errorf("update probe warm-up: %w", err)
		}
	}
	return wp, nil
}

// batch draws the next batch of edits.
func (wp *writeProbe) batch() []distflow.CapEdit {
	b := make([]distflow.CapEdit, probeEdits)
	for j := range b {
		b[j] = distflow.CapEdit{Edge: wp.rng.Intn(wp.m), Cap: 1 + wp.rng.Int63n(gnpMaxCap)}
	}
	return b
}

// run applies k timed batches.
func (wp *writeProbe) run(k int) {
	for ; k > 0; k-- {
		b := wp.batch()
		wp.s.timeUpdate(wp.log, "UpdateCapacities", wp.next, func() (*distflow.UpdateResult, error) { return wp.r.UpdateCapacities(b) })
		wp.next++
	}
}

// close releases the probe's router.
func (wp *writeProbe) close() {
	wp.r.Close()
	wp.s.notef("update probe: %d capacity batches of %d edits", wp.next, probeEdits)
}

// finish computes the end-to-end metrics of the run and, when traced,
// the layer metrics its answers and updates carry.
func (s *session) finish(log *opLog, builds []float64, heapMB float64) {
	var calls, serve, ratios, rounds []float64
	within := 0
	for _, a := range log.answers {
		calls = append(calls, a.callS)
		serve = append(serve, a.serveS)
		rounds = append(rounds, a.rounds)
		if a.ok {
			ratios = append(ratios, a.ratio)
			if a.serveS <= log.sloLimit {
				within++
			}
		}
	}
	e := s.e2e
	e["setup_s"] = percentile(builds, 0.5)
	e["heap_mb"] = heapMB
	e["query_p50_s"] = percentile(calls, 0.5)
	e["query_p90_s"] = percentile(calls, 0.9)
	e["queries_per_s"] = float64(len(log.answers)) / log.wall
	e["value_over_opt"] = mean(ratios)
	e["rounds_per_query"] = percentile(rounds, 0.5)
	e["update_p50_s"] = percentile(log.updates, 0.5)
	e["update_p90_s"] = percentile(log.updates, 0.9)
	e["serve_p50_s"] = percentile(serve, 0.5)
	e["serve_p90_s"] = percentile(serve, 0.9)
	e["serve_slo_share"] = float64(within) / float64(len(log.answers))
	e["success_share"] = 1 - float64(s.failed)/float64(s.attempted)
	s.notef("measured: %d answers over %.2fs, %d updates, %d router builds; SLO limit %.3fs",
		len(log.answers), log.wall, len(log.updates), len(builds), log.sloLimit)

	if !s.cfg.trace {
		return
	}
	l := s.layer
	n := float64(len(log.answers))
	var its, rs, esc, warm, bytes, msgs, meas float64
	for _, a := range log.answers {
		its += float64(a.iterations)
		rs += float64(a.restarts)
		esc += float64(a.escalations)
		if a.warm {
			warm++
		}
		bytes += float64(a.bytes)
		msgs += float64(a.messages)
		meas += float64(a.measured)
	}
	l["sherman.iterations_per_query"] = its / n
	l["sherman.restarts_per_query"] = rs / n
	l["sherman.escalations_per_query"] = esc / n
	l["router.warm_hit_share"] = warm / n
	l["shard.bytes_per_query"] = bytes / n
	l["shard.messages_per_query"] = msgs / n
	l["shard.measured_rounds_per_query"] = meas / n
	nu := float64(len(log.updates))
	l["capprox.dirty_trees_per_update"] = float64(log.upd.dirty) / nu
	l["capprox.swept_trees_per_update"] = float64(log.upd.swept) / nu
	l["capprox.resampled_trees_per_update"] = float64(log.upd.resampled) / nu
	l["capprox.rebuilds"] = float64(log.upd.rebuilds)
	l["go.alloc_bytes_per_query"] = float64(log.after.totalAlloc-log.before.totalAlloc-log.paused.totalAlloc) / n
	l["go.gc_cycles_per_query"] = float64(log.after.numGC-log.before.numGC-log.paused.numGC) / n
	l["go.cpu_per_wall"] = (log.after.cpu - log.before.cpu - log.paused.cpu).Seconds() /
		(log.after.at.Sub(log.before.at) - log.pausedWall()).Seconds()
}

// routerLayers records the approximator build's phase breakdown.
func (s *session) routerLayers(r *distflow.Router) {
	bb := r.BuildBreakdown()
	l := s.layer
	l["capprox.sample_s"] = bb.SampleSeconds
	l["capprox.race_s"] = bb.RaceSeconds
	l["capprox.cutcap_s"] = bb.CutCapSeconds
	l["capprox.alpha_s"] = bb.AlphaSeconds
	l["capprox.trees"] = float64(r.Trees())
	l["capprox.alpha"] = r.Alpha()
}
