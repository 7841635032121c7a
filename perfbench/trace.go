package main

// The traced run. Spans are recorded around every call the benchmark
// makes into the program. Layers the public API hides are measured by
// replaying the inner layer's exported function on the same inputs: a
// replica graph and approximator built from the same edge list, config
// and seed, solved with sherman.Solver directly, and the solver's
// kernels and the shard engine's operators timed on the workload's own
// arrays. A replay is only used once it is verified to compute exactly
// what the router computed.

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"distflow"
	"distflow/internal/capprox"
	"distflow/internal/graph"
	"distflow/internal/jtree"
	"distflow/internal/lsst"
	"distflow/internal/numutil"
	"distflow/internal/shard"
	"distflow/internal/sherman"
)

// span is one timed call: name, start and end in seconds since the run
// began, the index of the span that caused it (-1 for none) and the
// request it served.
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
	Req    int64   `json:"req"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so the
// untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when tracing is off).
func (tr *tracer) begin(name string, parent int, req int64) int {
	if tr == nil {
		return -1
	}
	at := time.Since(tr.t0).Seconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans = append(tr.spans, span{Name: name, Start: at, End: at, Parent: parent, Req: req})
	return len(tr.spans) - 1
}

// end closes span id.
func (tr *tracer) end(id int) {
	if tr == nil || id < 0 {
		return
	}
	at := time.Since(tr.t0).Seconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].End = at
}

// child opens a span under parent for parent's request.
func (tr *tracer) child(name string, parent int) int {
	if tr == nil {
		return -1
	}
	req := int64(0)
	if parent >= 0 {
		tr.mu.Lock()
		req = tr.spans[parent].Req
		tr.mu.Unlock()
	}
	return tr.begin(name, parent, req)
}

// write stores the spans as one JSON array in dir.
func (tr *tracer) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(tr.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// replica is an independent copy of a router's initial state built from
// the same inputs: graph, approximator and solver configuration.
type replica struct {
	g      *graph.Graph
	apx    *capprox.Approximator
	cfg    sherman.Config
	solver *sherman.Solver
}

// newReplica rebuilds the router's initial state from the edge list and
// options the router was built from. The approximator uses the same
// configuration and seed NewRouter derives from opts; its build is
// recorded as a span under parent.
func newReplica(el *edgeList, opts distflow.Options, tr *tracer, parent int) (*replica, error) {
	g := graph.New(el.n)
	for _, e := range el.edges {
		g.AddEdge(e.u, e.v, e.cap)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("replica graph is disconnected")
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	sp := tr.begin("replay:capprox.BuildCtx", parent, warmUpReq)
	apx, err := capprox.BuildCtx(context.Background(), g, capprox.Config{
		Trees:               opts.Trees,
		ExactCuts:           !opts.PaperScaling,
		UpdateDirtyFraction: opts.UpdateDirtyFraction,
		CutShiftResample:    opts.CutShiftResample,
		Step:                jtree.Config{LSST: lsst.Config{HeapRace: opts.HeapRace}},
	}, rand.New(rand.NewSource(seed)))
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("replica approximator: %w", err)
	}
	return &replica{
		g: g, apx: apx,
		cfg: sherman.Config{
			Epsilon:             opts.Epsilon,
			Alpha:               opts.Alpha,
			MaxIters:            opts.MaxIters,
			DisableAcceleration: opts.DisableAcceleration,
			DisableContinuation: opts.DisableContinuation,
		},
		solver: sherman.NewSolver(g, apx),
	}, nil
}

// replay is one replayed cold solve.
type replay struct {
	res     *sherman.FlowResult
	seconds float64
	evals   float64 // exact on the flat path
}

// solve replays a cold max-flow of s→t on solver sv (the replica's flat
// solver, or one bound to a shard engine). The evaluation count divides
// the ledger's gradient phase by the charge of one φ/∇φ evaluation: two
// R applications plus two BFS aggregations over a diameter-D tree.
func (rp *replica) solve(sv *sherman.Solver, s, t int) (replay, error) {
	t0 := time.Now()
	fr, err := sv.MaxFlowCtx(context.Background(), s, t, rp.cfg, nil)
	d := time.Since(t0).Seconds()
	if err != nil {
		return replay{}, fmt.Errorf("replay %d→%d: %w", s, t, err)
	}
	diam := rp.g.DiameterApprox()
	perEval := 2*rp.apx.EvalRounds(rp.g.N(), diam) + 2*int64(diam+1)
	return replay{res: fr, seconds: d, evals: float64(fr.Ledger.Phase("gradient")) / float64(perEval)}, nil
}

// checkReplay records a replay that did not compute bit for bit what
// the router answered for p.
func (s *session) checkReplay(rep replay, p distflow.STPair, value float64, iterations int) {
	if rep.res.Value != value || rep.res.Iterations != iterations {
		s.mismatch = append(s.mismatch, fmt.Sprintf("replay %d→%d: value %v, %d iterations; router value %v, %d iterations",
			p.S, p.T, rep.res.Value, rep.res.Iterations, value, iterations))
	}
}

// callTime returns the median seconds per call of fn over at least five
// timed batches of ~20 ms, running at least minCalls calls in total.
// The calls are recorded as one span named name under parent.
func (s *session) callTime(name string, parent int, minCalls int, fn func()) float64 {
	sp := s.tr.begin(name, parent, warmUpReq)
	defer s.tr.end(sp)
	fn() // the first call pays lazy allocation
	var per []float64
	for total := 0; total < minCalls || len(per) < 5; {
		t0 := time.Now()
		k := 0
		for k == 0 || time.Since(t0) < 20*time.Millisecond {
			fn()
			k++
		}
		per = append(per, time.Since(t0).Seconds()/float64(k))
		total += k
	}
	return percentile(per, 0.5)
}

// kernelLayers times the per-evaluation kernels, the residual routing
// and, when eng is non-nil, the shard engine's four operators, all on
// the arrays of the replayed solve rep of p; derives
// sherman.eval_other_s; and replays the epoch turnover of an update.
// Its spans hang under parent, the span of the replayed solve.
func (s *session) kernelLayers(rp *replica, rep replay, p distflow.STPair, eng *shard.Engine, parent int) error {
	g, apx, fr := rp.g, rp.apx, rep.res
	f := append([]float64(nil), fr.Flow...)
	invCap := make([]float64, g.M())
	for e, ed := range g.Edges() {
		if ed.Cap > 0 {
			invCap[e] = 1 / float64(ed.Cap)
		}
	}
	w1, grad := make([]float64, g.M()), make([]float64, g.M())
	bs := graph.STDemand(g.N(), p.S, p.T, fr.Value)
	div, r, pi := make([]float64, g.N()), make([]float64, g.N()), make([]float64, g.N())
	g.DivergenceInto(f, div)
	for v := range r {
		r[v] = bs[v] - div[v]
	}
	scratch := apx.NewEvalScratch()
	ta := 2 * fr.AlphaUsed

	l := s.layer
	l["numutil.softmax_grad_call_s"] = s.callTime("replay:numutil.SoftMaxGradScaledPar", parent, kernelCalls, func() { numutil.SoftMaxGradScaledPar(f, invCap, w1) })
	l["graph.divergence_call_s"] = s.callTime("replay:graph.Graph.DivergenceInto", parent, kernelCalls, func() { g.DivergenceInto(f, div) })
	l["capprox.potential_rt_call_s"] = s.callTime("replay:capprox.Approximator.PotentialRT", parent, kernelCalls, func() { apx.PotentialRT(r, ta, scratch, pi) })
	unit := graph.STDemand(g.N(), p.S, p.T, 1)
	l["capprox.norm_rb_call_s"] = s.callTime("replay:capprox.Approximator.NormRb", parent, kernelCalls, func() { apx.NormRb(unit) })
	l["sherman.eval_other_s"] = l["sherman.eval_s"] - l["numutil.softmax_grad_call_s"] -
		l["graph.divergence_call_s"] - l["capprox.potential_rt_call_s"]

	fresh := sherman.NewSolver(g, apx)
	sp := s.tr.begin("replay:sherman.Solver.RouteResidualOnST", parent, warmUpReq)
	t0 := time.Now()
	_, err := fresh.RouteResidualOnST(r)
	l["sherman.st_build_s"] = time.Since(t0).Seconds()
	s.tr.end(sp)
	if err != nil {
		return fmt.Errorf("residual routing: %w", err)
	}
	l["sherman.route_residual_call_s"] = s.callTime("replay:sherman.Solver.RouteResidualOnST", parent, kernelCalls, func() { _, _ = fresh.RouteResidualOnST(r) })

	shards := 0
	if eng != nil {
		shards = eng.Shards()
		var c1, c2, c3, c4 shard.Cost
		l["shard.softmax_grad_call_s"] = s.callTime("replay:shard.Engine.SoftMaxGradScaled", parent, kernelCalls, func() { _, c1 = eng.SoftMaxGradScaled(f, invCap, w1) })
		l["shard.residual_call_s"] = s.callTime("replay:shard.Engine.Residual", parent, kernelCalls, func() { c2 = eng.Residual(f, bs, div, r) })
		l["shard.potential_rt_call_s"] = s.callTime("replay:shard.Engine.PotentialRT", parent, kernelCalls, func() { _, c3 = eng.PotentialRT(r, ta, scratch.Sub, scratch.PT, pi) })
		l["shard.gradient_delta_call_s"] = s.callTime("replay:shard.Engine.GradientDelta", parent, kernelCalls, func() { _, c4 = eng.GradientDelta(w1, invCap, ta, pi, grad) })
		l["shard.bytes_per_eval"] = float64(c1.Bytes + c2.Bytes + c3.Bytes + c4.Bytes)
		cut := 0
		part := eng.Partition()
		for _, ed := range g.Edges() {
			if part.VertOwner(ed.U) != part.VertOwner(ed.V) {
				cut++
			}
		}
		l["shard.cut_edges"] = float64(cut)
	}

	// Epoch turnover: the fork (graph and approximator deep copies) and
	// the publish (CSR compaction, a fresh solver and, for sharded
	// routers, a new engine).
	var forks, pubs, engs []float64
	for i := 0; i < epochReplays; i++ {
		req := int64(i)
		sp := s.tr.begin("replay:fork", parent, req)
		t0 := time.Now()
		fg, fa := g.Clone(), apx.Clone()
		forks = append(forks, time.Since(t0).Seconds())
		s.tr.end(sp)
		sp = s.tr.begin("replay:publish", parent, req)
		t0 = time.Now()
		fg.Compact()
		_ = sherman.NewSolver(fg, fa)
		if shards > 0 {
			se := s.tr.begin("replay:shard.NewEngine", sp, req)
			te := time.Now()
			e, err := shard.NewEngine(fg, fa.Trees, fa.Scale, shards)
			engs = append(engs, time.Since(te).Seconds())
			s.tr.end(se)
			if err != nil {
				return fmt.Errorf("replica engine: %w", err)
			}
			e.Close()
		}
		pubs = append(pubs, time.Since(t0).Seconds())
		s.tr.end(sp)
	}
	l["router.fork_s"] = percentile(forks, 0.5)
	l["router.publish_s"] = percentile(pubs, 0.5)
	if shards > 0 {
		l["shard.engine_build_s"] = percentile(engs, 0.5)
	}
	return nil
}
