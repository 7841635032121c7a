// Package sherman implements the gradient-descent flow solver of
// Sherman that the paper makes distributed (§9): Algorithm 2
// (AlmostRoute) minimizes the potential
//
//	φ(f) = smax(C⁻¹f) + smax(2α·R·(b − Bf)),
//
// where R is the congestion approximator of internal/capprox, and
// Algorithm 1 composes O(log m) AlmostRoute calls with a final
// maximum-weight-spanning-tree routing of the leftover demand
// (Lemma 9.1) into an exactly-conserving, capacity-feasible
// (1+ε)-approximate maximum flow.
//
// Sign conventions (documented in internal/graph): b[v] is the supply
// injected at v; a flow f meets b when Divergence(f) = b; the residual
// demand is r = b − Divergence(f). The gradient of φ2 at edge e=(u,v)
// is 2α(π_v − π_u) for the node potentials π = Rᵀ·∇smax(y), Eq. (3)/(4).
//
// The stepper is, by default, a safeguarded accelerated-gradient method
// (Nesterov's momentum schedule with potential-monotonicity restarts,
// DESIGN.md §5) — Sherman's footnote 3 observes acceleration improves
// the ε⁻³ iteration bound toward ε⁻², and Grunau–Kyng–Zuzic (2025) make
// it the centerpiece of the state of the art. Small target accuracies
// are additionally reached through an ε-continuation schedule that
// warm-starts each refinement level from the previous level's flow.
// Config.DisableAcceleration and Config.DisableContinuation restore the
// plain stepper.
//
// Every gradient iteration charges the distributed cost of its two
// R-applications (Corollary 9.3) and its BFS-tree aggregations to the
// ledger, using the measured tree count and diameter.
package sherman

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"distflow/internal/capprox"
	"distflow/internal/congest"
	"distflow/internal/graph"
	"distflow/internal/mst"
	"distflow/internal/numutil"
	"distflow/internal/par"
	"distflow/internal/shard"
	"distflow/internal/vtree"
)

// Config tunes the solver. The zero value selects the paper's
// parameters with the accelerated stepper enabled.
type Config struct {
	// Epsilon is the approximation target (default 0.5).
	Epsilon float64
	// Alpha overrides the congestion-approximator quality parameter α
	// used in the potential (default 2·Alpha²·AlphaLow from the
	// measured approximator distortion, the Lemma 3.3 composition).
	Alpha float64
	// MaxIters bounds gradient iterations per fixed-α descent (default
	// 200·⌈α²·ε⁻³·ln n⌉, a generous multiple of the paper's
	// O(α²ε⁻³log n) bound). One AlmostRoute call may run several such
	// descents — one per ε-continuation level, times adaptive-α
	// restarts — each with a fresh budget.
	MaxIters int
	// DisableAdaptiveAlpha turns off the stall-doubling of α
	// (ablation A2: paper-faithful fixed step size).
	DisableAdaptiveAlpha bool
	// Momentum enables a safeguarded heavy-ball term μ·(f_k − f_{k-1})
	// with a FIXED coefficient on top of the gradient step (the
	// pre-acceleration exploratory option; momentum is dropped whenever
	// a step fails to decrease the potential, so the worst case is
	// unchanged). 0 = off; typical value 0.9. When set it takes
	// precedence over the default accelerated schedule.
	Momentum float64
	// DisableAcceleration turns off the default safeguarded
	// accelerated-gradient stepper (Nesterov's θ_k = k/(k+3) momentum
	// schedule with potential-monotonicity restarts, DESIGN.md §5) and
	// restores the plain backtracking gradient step.
	DisableAcceleration bool
	// DisableContinuation turns off the ε-continuation schedule that
	// solves AlmostRoute at a coarse accuracy first and warm-starts each
	// refinement level from the previous flow (DESIGN.md §5).
	DisableContinuation bool
	// OuterIters bounds Algorithm 1 repetitions (default ⌈log₂ m⌉+1).
	OuterIters int
}

// ErrNoConvergence is returned when AlmostRoute exhausts its iteration
// budget even after adaptive-α restarts.
var ErrNoConvergence = errors.New("sherman: gradient descent did not converge")

// muCap bounds the accelerated momentum coefficient μ_k = k/(k+3). The
// descent direction is a sign-gradient (ℓ∞-geometry) step whose length
// the η line search already adapts, so the classical μ→1 schedule
// overshoots into restart-thrash; capping at 0.4 measured best on the
// BENCH workload (swept 0.3–0.9: 1126 iterations at 0.4 vs 1420
// without momentum and 1858 uncapped, DESIGN.md §5).
const muCap = 0.4

// RouteResult is the outcome of AlmostRoute.
type RouteResult struct {
	// Flow is the computed (near-)routing of the demand.
	Flow []float64
	// Iterations is the number of gradient steps performed (summed over
	// continuation levels).
	Iterations int
	// Restarts counts potential-monotonicity restarts of the momentum
	// sequence (steps where the safeguard dropped the momentum term).
	Restarts int
	// AlphaUsed is the α the run converged with (≥ Config.Alpha when
	// adaptive restarts fired).
	AlphaUsed float64
	// Degraded reports that the context's deadline expired mid-descent
	// and Flow is the best iterate reached, not a converged routing. The
	// flow is still a valid (partial) routing — callers restore exact
	// conservation by tree-routing the residual — but the congestion
	// guarantee is whatever the caller measures, not (1+ε).
	Degraded bool
}

// ctxStatus classifies the context's state at a check point: an expired
// deadline asks for graceful degradation (stop iterating, hand back the
// current iterate), a cancellation aborts outright, and a live context
// costs one channel poll. The deadline/cancel split is the failure-
// handling contract of DESIGN.md §11: deadlines mean "best effort now",
// cancellation means "nobody wants this answer".
func ctxStatus(ctx context.Context) (degrade bool, err error) {
	select {
	case <-ctx.Done():
	default:
		return false, nil
	}
	if err := ctx.Err(); !errors.Is(err, context.DeadlineExceeded) {
		return false, err
	}
	return true, nil
}

// Solver bundles a graph and its congestion approximator with reusable
// solve state: a pool of gradient workspaces (the per-tree [][]float64
// scratch is recycled across queries instead of reallocated) and the
// lazily built maximum-weight spanning tree used for residual routing.
// A Solver is safe for concurrent use; every query draws its own
// workspace from the pool.
type Solver struct {
	g   *graph.Graph
	apx *capprox.Approximator

	// ops executes the per-evaluation operators: flat by default, on a
	// sharded message-passing engine after SetEngine. Results are
	// bit-identical (internal/shard's determinism contract); what
	// changes is that the ledger additionally records measured rounds,
	// messages, and bytes.
	ops operators

	wsPool sync.Pool

	stOnce sync.Once
	st     *stRouter
	stErr  error

	diamOnce sync.Once
	diam     int
}

// NewSolver returns a Solver for (g, apx). Long-lived callers (the
// distflow.Router) should create one Solver and reuse it across
// queries; the package-level AlmostRoute/MaxFlow wrappers create a
// throwaway Solver per call.
func NewSolver(g *graph.Graph, apx *capprox.Approximator) *Solver {
	return &Solver{g: g, apx: apx, ops: flatOps{g, apx}}
}

// SetEngine attaches a sharded execution engine built over the same
// (g, apx). Must be called before the Solver serves queries — the
// field is read without synchronization on the hot path. Pass nil to
// return to single-address-space execution.
func (s *Solver) SetEngine(e *shard.Engine) {
	if e == nil {
		s.ops = flatOps{s.g, s.apx}
		return
	}
	s.ops = engineOps{e}
}

// operators is the operator set of Sherman's potential on one execution
// substrate: the C⁻¹-scaled soft-max, the residual b − Bf, φ₂ with
// π = Rᵀ∇smax, the edge gradient with δ, and ‖Rb‖∞. Each returns the
// measured exchange bill, zero on the flat path.
type operators interface {
	softMaxGrad(f, scale, grad []float64) (float64, shard.Cost)
	residual(f, bs, div, r []float64) shard.Cost
	potentialRT(r []float64, ta float64, s *capprox.EvalScratch, pi []float64) (float64, shard.Cost)
	gradient(w1, invCap []float64, ta float64, pi, grad []float64) (float64, shard.Cost)
	normRb(b []float64, s *capprox.EvalScratch) (float64, shard.Cost)
}

// flatOps runs the operators' kernels on the shared worker pool.
type flatOps struct {
	g   *graph.Graph
	apx *capprox.Approximator
}

func (o flatOps) softMaxGrad(f, scale, grad []float64) (float64, shard.Cost) {
	return numutil.SoftMaxGradScaledPar(f, scale, grad), shard.Cost{}
}

func (o flatOps) residual(f, bs, div, r []float64) shard.Cost {
	o.g.ResidualInto(f, bs, div, r)
	return shard.Cost{}
}

func (o flatOps) potentialRT(r []float64, ta float64, s *capprox.EvalScratch, pi []float64) (float64, shard.Cost) {
	return o.apx.PotentialRT(r, ta, s, pi), shard.Cost{}
}

func (o flatOps) gradient(w1, invCap []float64, ta float64, pi, grad []float64) (float64, shard.Cost) {
	return o.g.GradientInto(w1, invCap, ta, pi, grad), shard.Cost{}
}

func (o flatOps) normRb(b []float64, s *capprox.EvalScratch) (float64, shard.Cost) {
	return o.apx.NormRbInto(b, s.Sub), shard.Cost{}
}

// engineOps runs the same kernels on each shard's owned chunks.
type engineOps struct{ e *shard.Engine }

func (o engineOps) softMaxGrad(f, scale, grad []float64) (float64, shard.Cost) {
	return o.e.SoftMaxGradScaled(f, scale, grad)
}

func (o engineOps) residual(f, bs, div, r []float64) shard.Cost {
	return o.e.Residual(f, bs, div, r)
}

func (o engineOps) potentialRT(r []float64, ta float64, s *capprox.EvalScratch, pi []float64) (float64, shard.Cost) {
	return o.e.PotentialRT(r, ta, s.Sub, s.PT, pi)
}

func (o engineOps) gradient(w1, invCap []float64, ta float64, pi, grad []float64) (float64, shard.Cost) {
	return o.e.GradientDelta(w1, invCap, ta, pi, grad)
}

func (o engineOps) normRb(b []float64, s *capprox.EvalScratch) (float64, shard.Cost) {
	return o.e.NormRb(b, s.Sub)
}

func (s *Solver) getWS() *workspace {
	if ws, ok := s.wsPool.Get().(*workspace); ok {
		return ws
	}
	return newWorkspace(s.g, s.apx)
}

func (s *Solver) putWS(ws *workspace) { s.wsPool.Put(ws) }

// normRb computes ‖Rb‖∞ into a pooled workspace's scratch, charging a
// measured exchange to ledger.
func (s *Solver) normRb(b []float64, ledger *congest.Ledger) float64 {
	ws := s.getWS()
	defer s.putWS(ws)
	norm, c := s.ops.normRb(b, ws.scratch)
	if ledger != nil && c != (shard.Cost{}) {
		ledger.ChargeExchange("norm-rb", c.Rounds, c.Messages, c.Bytes)
	}
	return norm
}

// stTree returns the cached maximum-weight-spanning-tree router.
func (s *Solver) stTree() (*stRouter, error) {
	s.stOnce.Do(func() { s.st, s.stErr = newSTRouter(s.g) })
	return s.st, s.stErr
}

// convergecastRounds is the charge of one pipelined convergecast over a
// BFS tree, D + ⌈√n⌉ rounds.
func (s *Solver) convergecastRounds() int64 {
	return int64(s.diameter()) + int64(math.Ceil(math.Sqrt(float64(s.g.N()))))
}

// diameter returns the graph's approximate hop diameter, measured on
// first use: a Solver's graph never changes (epochs fork before they
// write), so two BFS passes serve every query.
func (s *Solver) diameter() int {
	s.diamOnce.Do(func() { s.diam = s.g.DiameterApprox() })
	return s.diam
}

type workspace struct {
	// cost accumulates the measured exchange bill of evals since the
	// last charge() drain.
	cost shard.Cost
	// invCap[e] = 1/cap_e, fused into the φ1 soft-max and the gradient
	// assembly (multiplies instead of divides on the hot path).
	invCap []float64
	// scratch holds the per-tree buffers of the fused φ2 pipeline
	// (capprox.PotentialRT).
	scratch *capprox.EvalScratch
	w1      []float64
	grad    []float64
	div     []float64
	r       []float64
	pi      []float64
	// iterate buffers reused across calls (fully overwritten each call)
	f       []float64
	fPrev   []float64
	fTry    []float64
	stepVec []float64
	bs      []float64
}

func newWorkspace(g *graph.Graph, apx *capprox.Approximator) *workspace {
	ws := &workspace{scratch: apx.NewEvalScratch()}
	ws.invCap = make([]float64, g.M())
	for e, ed := range g.Edges() {
		if ed.Cap == 0 {
			// Tombstoned edge: zero inverse capacity keeps it out of φ1
			// and the gradient never moves flow onto it (the step vector
			// scales by cap = 0), so its flow stays exactly 0.
			continue
		}
		ws.invCap[e] = 1 / float64(ed.Cap)
	}
	ws.w1 = make([]float64, g.M())
	ws.grad = make([]float64, g.M())
	ws.div = make([]float64, g.N())
	ws.r = make([]float64, g.N())
	ws.pi = make([]float64, g.N())
	ws.f = make([]float64, g.M())
	ws.fPrev = make([]float64, g.M())
	ws.fTry = make([]float64, g.M())
	ws.stepVec = make([]float64, g.M())
	ws.bs = make([]float64, g.N())
	return ws
}

// eval computes φ(f), the gradient, and δ = Σ_e cap_e·|grad_e| for the
// scaled demand bs on the solver's substrate, adding the measured
// exchange to ws.cost for charge() to drain into the ledger. The passes
// are fused (DESIGN.md §5): φ1 evaluates the soft-max directly on f
// with the 1/cap scaling folded into every chunk pass, and φ2 runs
// ApplyR → ∇smax → ApplyRᵀ as single per-tree sweeps. All reductions
// combine partials in an order fixed by the problem size alone, so eval
// is a pure function of (f, bs, alpha) at every worker count and shard
// count.
func (s *Solver) eval(ws *workspace, f, bs []float64, alpha float64) (phi, delta float64) {
	phi1, c := s.ops.softMaxGrad(f, ws.invCap, ws.w1)
	ws.cost.Add(c)
	ws.cost.Add(s.ops.residual(f, bs, ws.div, ws.r))
	phi2, c := s.ops.potentialRT(ws.r, 2*alpha, ws.scratch, ws.pi)
	ws.cost.Add(c)
	delta, c = s.ops.gradient(ws.w1, ws.invCap, 2*alpha, ws.pi, ws.grad)
	ws.cost.Add(c)
	return phi1 + phi2, delta
}

// stepState carries warm-started optimizer state across continuation
// levels and across the outer AlmostRoute calls of one MaxFlow: the
// line-search scale η (so later calls skip the slow ramp from 1) and
// the last α that converged (so later calls skip re-discovering it
// through stall restarts). Deterministic: both are pure functions of
// the preceding solve sequence.
type stepState struct {
	eta   float64
	alpha float64
	// pi, when non-nil, receives the vertex potential π = Rᵀ∇smax at
	// the last accepted iterate of each converged descent, so after an
	// AlmostRoute call it holds the finest level's: the dual that
	// MaxFlowCtx's certificate sweep ranks vertices by.
	pi []float64
}

// AlmostRoute runs Algorithm 2 for the demand b with accuracy eps. The
// returned flow approximately routes b: its congestion is within
// (1+eps) of optimal and the residual b − Div(f) is small enough for
// Algorithm 1's geometric decrease (Sherman, Theorem 1.2 of [30]).
// Charged rounds are appended to ledger when non-nil.
func (s *Solver) AlmostRoute(b []float64, eps float64, cfg Config, ledger *congest.Ledger) (*RouteResult, error) {
	return s.AlmostRouteWarm(b, eps, cfg, ledger, nil)
}

// AlmostRouteWarm is AlmostRoute starting the descent from the given
// warm flow (in demand units; nil = cold start from zero). A warm flow
// near the optimum lets the run terminate in few iterations; any flow
// is safe — it only biases the initial iterate, never the guarantee.
func (s *Solver) AlmostRouteWarm(b []float64, eps float64, cfg Config, ledger *congest.Ledger, warm []float64) (*RouteResult, error) {
	return s.AlmostRouteCtx(context.Background(), b, eps, cfg, ledger, warm)
}

// AlmostRouteCtx is AlmostRouteWarm under a context. The descent checks
// ctx once per gradient iteration (and per scaling zoom), so a
// cancellation returns within one iteration's work: cancellation aborts
// with the context's error, an expired deadline stops iterating and
// returns the current iterate flagged Degraded (see RouteResult).
func (s *Solver) AlmostRouteCtx(ctx context.Context, b []float64, eps float64, cfg Config, ledger *congest.Ledger, warm []float64) (*RouteResult, error) {
	st := &stepState{eta: 1}
	return s.almostRoute(ctx, b, eps, cfg, ledger, warm, st)
}

// continuationLevels returns the ε schedule, coarse to fine, ending at
// eps. Each level is 3× coarser than the next: a level costs Θ(ε⁻²..⁻³)
// iterations, so the prefix sums are dominated by the final level while
// every level starts from the previous level's nearly-converged flow.
func continuationLevels(eps float64, cfg Config) []float64 {
	if cfg.DisableContinuation {
		return []float64{eps}
	}
	levels := []float64{eps}
	for e := eps * 3; e <= 0.6; e *= 3 {
		levels = append([]float64{e}, levels...)
	}
	return levels
}

// resolveAlpha returns the starting α for cfg. The α the descent needs
// is the congestion-approximation quality of the cut family, i.e.
// max_b opt(b)/‖Rb‖∞ — NOT the cap_T/cap_G distortion (with exact-cut
// row scaling the latter cancels entirely). That quality is measured in
// experiment E4 to sit in the low single digits on all tested families,
// and the step size pays α²: start at 2 and let the adaptive restart
// double on stall (ablation A2). The Lemma 3.3 worst case
// 2·Alpha²·AlphaLow remains available via Config.Alpha.
func resolveAlpha(cfg Config) float64 {
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 2
	}
	if alpha < 1 {
		alpha = 1
	}
	return alpha
}

// NormalizeEps maps the zero value to the documented default accuracy
// (0.5) and rejects everything else outside (0,1) with a clear error —
// including NaN, which sails through a naive `eps <= 0 || eps >= 1`
// check (both comparisons are false) and would otherwise reach the
// gradient loop as an unreachable termination target. This is the ONE
// definition of the ε default: every solve path and every warm-cache
// key derivation must go through it (directly or via
// distflow.normalizeEps), because a second copy of the default
// silently desyncs cache keys from the accuracy a solve actually uses.
func NormalizeEps(eps float64) (float64, error) {
	if eps == 0 {
		return 0.5, nil
	}
	if math.IsNaN(eps) || eps < 0 || eps >= 1 {
		return 0, fmt.Errorf("sherman: eps %v out of (0,1)", eps)
	}
	return eps, nil
}

func (s *Solver) almostRoute(ctx context.Context, b []float64, eps float64, cfg Config, ledger *congest.Ledger, warm []float64, st *stepState) (*RouteResult, error) {
	g := s.g
	if len(b) != g.N() {
		return nil, fmt.Errorf("sherman: demand length %d, want %d", len(b), g.N())
	}
	eps, err := NormalizeEps(eps)
	if err != nil {
		return nil, err
	}
	if st.alpha == 0 {
		st.alpha = resolveAlpha(cfg)
	}
	rb := s.normRb(b, ledger)
	if rb == 0 {
		return &RouteResult{Flow: make([]float64, g.M()), AlphaUsed: st.alpha}, nil
	}
	n := float64(g.N())
	diameter := s.diameter()

	out := &RouteResult{}
	cur := warm
	for _, le := range continuationLevels(eps, cfg) {
		res, err := s.almostRouteAdaptive(ctx, b, le, cfg, n, diameter, ledger, rb, cur, st)
		if err != nil {
			return nil, err
		}
		out.Flow = res.Flow
		out.Iterations += res.Iterations
		out.Restarts += res.Restarts
		out.AlphaUsed = res.AlphaUsed
		cur = res.Flow
		if res.Degraded {
			// Deadline hit mid-level: the current iterate is the best
			// answer there will be — finer levels would only start over.
			out.Degraded = true
			break
		}
	}
	return out, nil
}

// almostRouteAdaptive wraps the fixed-α descent with the stall-doubling
// restarts of ablation A2, resuming from the α the preceding solves
// settled on.
func (s *Solver) almostRouteAdaptive(ctx context.Context, b []float64, eps float64, cfg Config, n float64, diameter int, ledger *congest.Ledger, rb float64, warm []float64, st *stepState) (*RouteResult, error) {
	restarts := 0
	for {
		res, err := s.almostRouteFixedAlpha(ctx, b, eps, st.alpha, cfg, n, diameter, ledger, rb, warm, st)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, ErrNoConvergence) || cfg.DisableAdaptiveAlpha || restarts >= 6 {
			return nil, err
		}
		// Stall: the measured α under-estimated the true approximation
		// ratio; double and restart (engineering fallback documented in
		// DESIGN.md ablation A2).
		st.alpha *= 2
		restarts++
	}
}

func (s *Solver) almostRouteFixedAlpha(ctx context.Context, b []float64, eps, alpha float64, cfg Config, n float64, diameter int, ledger *congest.Ledger, rb float64, warm []float64, st *stepState) (*RouteResult, error) {
	g := s.g
	ws := s.getWS()
	defer s.putWS(ws)
	target := 16 * math.Log(n+2) / eps

	// Initial scaling: 2α‖R(σb)‖∞ = target (Algorithm 2 line 1). With a
	// warm start the scale is chosen so that the warm flow's φ1 also
	// starts inside the working range — σ = target/max(2α‖Rb‖∞, cong(w))
	// — which skips most of the 17/16 zoom steps.
	sigma := target / (2 * alpha * rb)
	f := ws.f
	if warm != nil {
		if cw := g.MaxCongestion(warm); cw > 0 && target/cw < sigma {
			sigma = target / cw
		}
		par.For(len(f), func(lo, hi int) {
			for e := lo; e < hi; e++ {
				f[e] = sigma * warm[e]
			}
		})
	} else {
		par.For(len(f), func(lo, hi int) {
			for e := lo; e < hi; e++ {
				f[e] = 0
			}
		})
	}
	bs := ws.bs
	par.For(len(bs), func(lo, hi int) {
		for v := lo; v < hi; v++ {
			bs[v] = sigma * b[v]
		}
	})

	maxIters := cfg.MaxIters
	if maxIters == 0 {
		maxIters = 50 * int(math.Ceil(alpha*alpha*math.Pow(eps, -3)*math.Log(n+2)))
		if maxIters > 2_000_000 {
			maxIters = 2_000_000
		}
	}
	step := 1 / (1 + 4*alpha*alpha)

	// Backtracking line search around the theoretical step: Algorithm 2's
	// step size δ/(1+4α²) guarantees potential decrease but its constant
	// is enormous in practice; we scale it by an adaptive factor η ≥ 1
	// that grows while steps keep decreasing φ and shrinks (with the
	// step retried) when they overshoot. At η = 1 the step is accepted
	// unconditionally — exactly the paper's rule — so the worst case
	// matches Sherman's O(α²ε⁻³ log n) bound while typical runs take
	// orders of magnitude fewer iterations. Rejected probes charge their
	// distributed evaluation rounds like accepted ones. η is warm-started
	// from the preceding solve (stepState), skipping the ramp from 1.
	iters := 0
	restarts := 0
	eta := math.Max(1, st.eta)
	stepVec := ws.stepVec
	fTry := ws.fTry
	fPrev := ws.fPrev

	// Momentum mode: an explicit Config.Momentum keeps the legacy fixed
	// heavy-ball coefficient; otherwise the default is the accelerated
	// schedule μ_k = k/(k+3) (Nesterov's θ-sequence) over the k accepted
	// steps since the last restart. Both are safeguarded: a momentum
	// step that fails to decrease φ is retried without the term, which
	// for the accelerated schedule is a potential-monotonicity restart
	// (k returns to 0 and the sequence rebuilds).
	heavyBall := cfg.Momentum > 0
	accel := !heavyBall && !cfg.DisableAcceleration
	trackPrev := heavyBall || accel
	k := 0
	useMomentum := false

	phi, delta := s.eval(ws, f, bs, alpha)
	charge := func() {
		measured := ws.cost
		ws.cost = shard.Cost{}
		if ledger != nil {
			// Two R-applications (Cor. 9.3) + two BFS aggregations per
			// potential/gradient evaluation (§9.1).
			ledger.ChargeAccounted("gradient", s.apx.EvalRounds(g.N(), diameter)*2+2*int64(diameter+1))
			if measured != (shard.Cost{}) {
				ledger.ChargeExchange("gradient", measured.Rounds, measured.Messages, measured.Bytes)
			}
		}
	}
	charge()
	// degradeNow materializes the current iterate as a Degraded result:
	// unscale f exactly like the convergence path does, so the flow is in
	// demand units and the caller's residual tree-routing applies
	// unchanged.
	degradeNow := func() *RouteResult {
		out := make([]float64, len(f))
		inv := 1 / sigma
		fcur := f
		par.For(len(fcur), func(lo, hi int) {
			for e := lo; e < hi; e++ {
				out[e] = fcur[e] * inv
			}
		})
		st.eta = eta
		return &RouteResult{Flow: out, Iterations: iters, Restarts: restarts, AlphaUsed: alpha, Degraded: true}
	}
	//distflow:poll gradient-iteration granule (DESIGN.md §11)
	for {
		// One context poll per gradient iteration: cancelled work returns
		// inside one iteration's budget, an expired deadline degrades to
		// the current iterate.
		if deg, cerr := ctxStatus(ctx); cerr != nil {
			return nil, cerr
		} else if deg {
			return degradeNow(), nil
		}
		// Scaling loop (lines 4-5): zoom until the potential reaches the
		// working range Θ(ε⁻¹ log n).
		//distflow:poll scaling sweeps are full-length passes
		for phi < target {
			if deg, cerr := ctxStatus(ctx); cerr != nil {
				return nil, cerr
			} else if deg {
				return degradeNow(), nil
			}
			par.For(len(f), func(lo, hi int) {
				for e := lo; e < hi; e++ {
					f[e] *= 17.0 / 16
				}
			})
			par.For(len(bs), func(lo, hi int) {
				for v := lo; v < hi; v++ {
					bs[v] *= 17.0 / 16
				}
			})
			sigma *= 17.0 / 16
			phi, delta = s.eval(ws, f, bs, alpha)
			charge()
		}
		if delta < eps/4 {
			out := make([]float64, len(f))
			inv := 1 / sigma
			par.For(len(f), func(lo, hi int) {
				for e := lo; e < hi; e++ {
					out[e] = f[e] * inv
				}
			})
			st.eta = eta
			if st.pi != nil {
				// The last evaluation ran at f (the scaling loop's, or the
				// accepted probe's), so ws.pi is f's potential.
				copy(st.pi, ws.pi)
			}
			return &RouteResult{Flow: out, Iterations: iters, Restarts: restarts, AlphaUsed: alpha}, nil
		}
		edges := g.Edges()
		par.For(len(edges), func(lo, hi int) { signStep(stepVec, ws.grad, edges, delta, step, lo, hi) })
		//distflow:poll backtracking probes are full potential evaluations
		for {
			// Backtracking probes are full potential evaluations too —
			// poll per probe so rejected-step streaks stay cancellable.
			if deg, cerr := ctxStatus(ctx); cerr != nil {
				return nil, cerr
			} else if deg {
				return degradeNow(), nil
			}
			mu := 0.0
			if useMomentum {
				if heavyBall {
					mu = cfg.Momentum
				} else {
					mu = math.Min(float64(k)/float64(k+3), muCap)
				}
			}
			if mu > 0 {
				par.For(len(fTry), func(lo, hi int) {
					for e := lo; e < hi; e++ {
						fTry[e] = f[e] - eta*stepVec[e] + mu*(f[e]-fPrev[e])
					}
				})
			} else {
				par.For(len(fTry), func(lo, hi int) {
					for e := lo; e < hi; e++ {
						fTry[e] = f[e] - eta*stepVec[e]
					}
				})
			}
			phiTry, deltaTry := s.eval(ws, fTry, bs, alpha)
			charge()
			iters++
			if iters > maxIters {
				return nil, fmt.Errorf("%w after %d iterations (alpha=%v, eps=%v)", ErrNoConvergence, iters, alpha, eps)
			}
			decreased := phiTry < phi
			if decreased || (eta <= 1 && mu == 0) {
				if trackPrev {
					copy(fPrev, f)
				}
				f, fTry = fTry, f
				phi, delta = phiTry, deltaTry
				if decreased {
					// decreased at this η: try a larger one next time
					eta = math.Min(eta*1.25, 1024)
					k++
					useMomentum = trackPrev
				} else {
					// forced paper-rule step without decrease: the local
					// model is off, rebuild the momentum sequence
					k = 0
				}
				break
			}
			// Safeguard order: first drop the momentum term (a
			// potential-monotonicity restart of the accelerated
			// sequence), then shrink the step back toward the paper's
			// guaranteed size.
			if useMomentum {
				useMomentum = false
				k = 0
				restarts++
				continue
			}
			eta = math.Max(eta/2, 1)
		}
	}
}

// AlmostRoute runs Algorithm 2 on a throwaway Solver. Long-lived
// callers should construct a Solver (or distflow.Router) and use its
// methods so workspaces are pooled across queries.
func AlmostRoute(g *graph.Graph, apx *capprox.Approximator, b []float64, eps float64, cfg Config, ledger *congest.Ledger) (*RouteResult, error) {
	return NewSolver(g, apx).AlmostRoute(b, eps, cfg, ledger)
}

// FlowResult is the outcome of the top-level max-flow computation.
type FlowResult struct {
	// Value is the achieved s-t flow value (≥ maxflow/(1+ε) up to the
	// residual-routing slack; experiments record the realized ratio).
	Value float64
	// Flow is an exactly-conserving, capacity-feasible s-t flow of the
	// stated value.
	Flow []float64
	// Congestion is the pre-scaling congestion of routing the unit
	// demand; 1/Congestion = Value.
	Congestion float64
	// Iterations totals gradient steps across all AlmostRoute calls.
	Iterations int
	// Restarts totals momentum restarts across all AlmostRoute calls.
	Restarts int
	// Outer is the number of Algorithm 1 repetitions executed.
	Outer int
	// AlphaUsed is the largest α any AlmostRoute call settled on.
	AlphaUsed float64
	// Escalations counts quality escalations: attempts at a 4× boosted
	// α, each warm-started from the flow of the attempt before it, made
	// after an attempt stalled or ran out of outer rounds with neither
	// its residual test nor an s-t cut certificate met — the congestion
	// approximator was weaker than the working α assumed (possible
	// after aggressive topology churn, or for an unlucky tree sample),
	// so the descent "converged" while leaving real residual behind. 0
	// on healthy queries.
	Escalations int
	// Degraded reports a best-effort answer: the context's deadline
	// expired before the outer loop met its residual certificate, so the
	// result is the current iterate with its residual tree-routed. The
	// flow is still exactly conserving and capacity-feasible (the final
	// rescale guarantees that unconditionally); what is lost is the
	// (1+ε) optimality guarantee, replaced by the measured CertBound.
	Degraded bool
	// CertBound is the measured quality certificate of this answer:
	// Value ≥ OPT/CertBound. Value = 1/cong(total) and every s-t cut of
	// capacity C bounds OPT ≤ C, so CertBound = cong(total)·C for the
	// smallest s-t cut the solve knows: the smallest separating tree
	// cut 1/‖Rb‖∞ when the approximator's rows are exact cuts, and the
	// smaller of that and the swept cut when a certificate sweep ran
	// (DESIGN.md §5). Answers the certificate stopped sit at
	// ≤ 1 + ε/50; degraded answers report however far the iterate got.
	// Under virtual row scaling (PaperScaling) 1/‖Rb‖∞ is no cut:
	// CertBound is the swept cut's bound when a sweep ran, and
	// cong(total)/‖Rb‖∞, an estimate rather than a certificate, when
	// none did.
	CertBound float64
	// Ledger holds the charged rounds for the flow computation phases
	// (approximator construction is ledgered separately in capprox).
	Ledger *congest.Ledger
}

// MaxFlow runs Algorithm 1 for the s-t pair: route the unit s-t demand
// near-optimally, drive the residual down over AlmostRoute calls until
// the residual is negligible or an s-t cut certifies the answer, route
// the leftovers exactly on a maximum-weight spanning tree, and rescale
// the combined flow to feasibility. The value of the result is a
// (1+ε)(1+o(1))-approximation of the maximum flow.
func (s *Solver) MaxFlow(src, dst int, cfg Config) (*FlowResult, error) {
	return s.MaxFlowWarm(src, dst, cfg, nil)
}

// MaxFlowWarm is MaxFlow with the first AlmostRoute call warm-started
// from the given routing of the unit s-t demand (nil = cold start).
// Callers obtain such a routing from a previous result of the same
// query as Flow/Value (the distflow.Router's warm cache does exactly
// this). The warm flow only biases the initial iterate: the returned
// flow satisfies the same (1+ε) guarantee, but is generally not
// bit-identical to the cold-started result (DESIGN.md §5).
func (s *Solver) MaxFlowWarm(src, dst int, cfg Config, warm []float64) (*FlowResult, error) {
	return s.MaxFlowCtx(context.Background(), src, dst, cfg, warm)
}

// MaxFlowCtx is MaxFlowWarm under a context. Cancellation (ctx.Err() ==
// context.Canceled) aborts the solve with the context's error within one
// descent-iteration granule. A deadline expiry instead degrades: the
// outer loop stops where it is, the current iterate's residual is
// tree-routed so the answer stays exactly conserving and feasible, and
// the result comes back with Degraded=true and the measured CertBound —
// a best-effort answer, never an error. Degraded results depend on
// timing and must not be cached or compared bit-for-bit.
//
// A context that carries a deadline also caps quality escalations at
// one (instead of 4): each escalation is a further attempt at a
// boosted α, and a caller with a time budget prefers the current
// iterate over attempts it likely cannot afford.
func (s *Solver) MaxFlowCtx(ctx context.Context, src, dst int, cfg Config, warm []float64) (*FlowResult, error) {
	g := s.g
	if src == dst || src < 0 || dst < 0 || src >= g.N() || dst >= g.N() {
		return nil, fmt.Errorf("sherman: invalid terminals %d, %d", src, dst)
	}
	eps, err := NormalizeEps(cfg.Epsilon)
	if err != nil {
		return nil, err
	}
	tr, err := s.stTree()
	if err != nil {
		return nil, err
	}
	ledger := congest.NewLedger()
	b := graph.STDemand(g.N(), src, dst, 1)

	outer := cfg.OuterIters
	if outer == 0 {
		outer = int(math.Ceil(math.Log2(float64(g.M()+2)))) + 1
	}

	// AlphaUsed must report a valid α even when the certificate
	// short-circuit below skips every gradient step; the descent raises
	// it when adaptive restarts fire.
	res := &FlowResult{Ledger: ledger, AlphaUsed: resolveAlpha(cfg)}
	total := make([]float64, g.M())
	resid := append([]float64(nil), b...)
	norm0 := s.normRb(b, ledger)
	var fTree []float64

	// Certificate short-circuit for warm starts: a cached routing of the
	// same unit demand is usually exactly conserving, so its residual
	// passes the tree-routing certificate below outright — the gradient
	// loop is skipped and the query is served by rescaling (bit-identical
	// to the cached answer when the residual is exactly met). A warm
	// vector that fails the certificate (stale or partial) falls through
	// to a warm-started descent.
	skip := false
	if warm != nil {
		copy(total, warm)
		div := g.Divergence(total)
		par.For(len(resid), func(lo, hi int) {
			for v := lo; v < hi; v++ {
				resid[v] = b[v] - div[v]
			}
		})
		fTree = tr.route(resid)
		if g.MaxCongestion(fTree) <= 0.01*eps*g.MaxCongestion(total) {
			skip = true
		} else {
			for e := range total {
				total[e] = 0
			}
			copy(resid, b)
			fTree = nil
		}
	}
	// Quality-escalation loop around Algorithm 1 (DESIGN.md §5, §8).
	// Each attempt runs the outer AlmostRoute loop at a working α, and a
	// round ends it on one of three rules:
	//   - the residual test: the tree-routed residual is negligible next
	//     to the flow, so the answer is as good as the descent made it;
	//   - the certificate: an s-t cut certifies the answer in hand,
	//     OPT/Value ≤ 1 + ε/50;
	//   - a stall: the round shrank cong(fTree)/cong(total) by less than
	//     2× against the previous round, so further rounds at this α would
	//     not reach either test.
	// A stall (or running out of rounds) means the approximator's real
	// quality is worse than α assumed — the descent kept "converging"
	// while R under-weighted the leftover residual — so the next attempt
	// runs at 4× the α (the premature-convergence analogue of the
	// stall-doubling restarts of ablation A2), warm-started from the flow
	// the failed attempt accumulated. Healthy queries never enter a
	// second attempt.
	const maxEscalations = 4
	maxEsc := maxEscalations
	if _, hasDeadline := ctx.Deadline(); hasDeadline {
		maxEsc = 1
	}
	baseAlpha := resolveAlpha(cfg)
	certTarget := 1 + eps/certSlack
	// cut is the smallest s-t cut capacity the solve knows, an upper
	// bound on OPT: under exact-cut rows 1/norm0 is the smallest tree cut
	// separating s from t, and every sweep can lower it, whichever
	// attempt's π it ranks by.
	cut := math.Inf(1)
	if s.apx.ExactRows() {
		cut = 1 / norm0
	}
	var next []float64
	degraded := false
	for attempt := 0; !skip; attempt++ {
		pi := make([]float64, g.N())
		st := &stepState{eta: 1, alpha: baseAlpha * math.Pow(4, float64(attempt)), pi: pi}
		certMet, swept := false, false
		prevShrink := 0.0
		//distflow:poll Algorithm-1 outer iterations poll before each almostRoute level
		for i := 0; i < outer; i++ {
			if deg, cerr := ctxStatus(ctx); cerr != nil {
				return nil, cerr
			} else if deg {
				degraded = true
				break
			}
			epsI := 0.5
			var w []float64
			if i == 0 {
				epsI = eps
				w = next
				if attempt == 0 {
					w = warm
				}
			}
			rr, err := s.almostRoute(ctx, resid, epsI, cfg, ledger, w, st)
			if err != nil {
				if errors.Is(err, context.Canceled) {
					return nil, err
				}
				return nil, fmt.Errorf("sherman: outer %d: %w", i, err)
			}
			// Only the first call routes the s-t demand itself; later calls
			// route residuals, whose potentials say nothing about s-t cuts.
			st.pi = nil
			res.Iterations += rr.Iterations
			res.Restarts += rr.Restarts
			if rr.AlphaUsed > res.AlphaUsed {
				res.AlphaUsed = rr.AlphaUsed
			}
			par.For(len(total), func(lo, hi int) {
				for e := lo; e < hi; e++ {
					total[e] += rr.Flow[e]
				}
			})
			div := g.Divergence(total)
			par.For(len(resid), func(lo, hi int) {
				for v := lo; v < hi; v++ {
					resid[v] = b[v] - div[v]
				}
			})
			res.Outer++
			if rr.Degraded {
				// The descent already salvaged its current iterate; keep
				// the partial flow and fall through to tree-route the
				// remaining residual below.
				degraded = true
				fTree = nil
				break
			}
			// Measured residual certificate: tree-route the current
			// residual and stop once its congestion is negligible at the
			// target accuracy — the tree flow is about to be added
			// verbatim, so cong(fTree) ≤ ε/100·cong(total) bounds the
			// final perturbation directly (no approximator slack
			// involved). This replaces the fixed 1e-9 norm cutoff, which
			// over-solved by 2-3 outer rounds on typical instances
			// (DESIGN.md §5).
			fTree = tr.route(resid)
			congTree, congTotal := g.MaxCongestion(fTree), g.MaxCongestion(total)
			if congTree <= 0.01*eps*congTotal ||
				s.normRb(resid, ledger) <= norm0*1e-9 {
				certMet = true
				break
			}
			// Certificate stop: the answer returned now would be total +
			// fTree. Try the tree cuts first; sweep this attempt's π only
			// when the cuts known so far do not certify it.
			cong := sumCongestion(g, total, fTree)
			if cong*cut > certTarget && !swept {
				swept = true
				cut = math.Min(cut, s.certificateCut(pi, src, dst, ledger))
			}
			if cong*cut <= certTarget {
				certMet = true
				break
			}
			shrink := congTree / congTotal
			if i > 0 && shrink > prevShrink/2 {
				break
			}
			prevShrink = shrink
		}
		if certMet || degraded || attempt >= maxEsc {
			break
		}
		// Escalate: the next attempt starts from the flow in hand.
		res.Escalations++
		next = append(next[:0], total...)
		par.For(len(total), func(lo, hi int) {
			for e := lo; e < hi; e++ {
				total[e] = 0
			}
		})
		copy(resid, b)
		fTree = nil
	}
	if fTree == nil {
		fTree = tr.route(resid)
	}

	// Lemma 9.1: route the residual demand on a maximum-weight spanning
	// tree — routing on trees is exact, restoring conservation.
	for e := range total {
		total[e] += fTree[e]
	}
	ledger.ChargeAccounted("residual-tree-routing", s.convergecastRounds())

	cong := g.MaxCongestion(total)
	if cong == 0 {
		return nil, fmt.Errorf("sherman: zero flow produced")
	}
	res.Congestion = cong
	res.Value = 1 / cong
	res.Degraded = degraded
	res.CertBound = cong * cut
	if math.IsInf(cut, 1) {
		// Virtual row scaling and no sweep: 1/norm0 only estimates a cut.
		res.CertBound = cong / norm0
	}
	res.Flow = make([]float64, g.M())
	for e := range total {
		res.Flow[e] = total[e] / cong
	}
	return res, nil
}

// MaxFlow runs Algorithm 1 on a throwaway Solver; see Solver.MaxFlow.
func MaxFlow(g *graph.Graph, apx *capprox.Approximator, s, t int, cfg Config) (*FlowResult, error) {
	return NewSolver(g, apx).MaxFlow(s, t, cfg)
}

// RouteResidualOnST routes the (feasible: Σb=0) demand b exactly on the
// Solver's cached maximum-weight spanning tree; see RouteOnMaxWeightST.
func (s *Solver) RouteResidualOnST(b []float64) ([]float64, error) {
	tr, err := s.stTree()
	if err != nil {
		return nil, err
	}
	return tr.route(b), nil
}

// stRouter routes demands exactly on the maximum-weight spanning tree
// of g. The tree, its BFS parent structure, and the per-vertex edge
// orientations are computed once and reused for every residual-routing
// call (each call was previously a fresh Kruskal + BFS).
type stRouter struct {
	t          *vtree.VTree
	parentEdge []int
	orient     []float64
	m          int
}

func newSTRouter(g *graph.Graph) (*stRouter, error) {
	inTree, _ := mst.Kruskal(g, true)
	n := g.N()
	root := 0
	for root < n && g.Removed(root) {
		root++
	}
	if root == n {
		return nil, fmt.Errorf("sherman: no active vertex")
	}
	parent := make([]int, n)
	parentEdge := make([]int, n)
	for v := range parent {
		parent[v] = -2
		parentEdge[v] = -1
	}
	parent[root] = -1
	queue := []int{root}
	// BFS over the graph's live adjacency (base CSR plus any churn
	// overlay), filtering to tree edges inline.
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.ForEachArc(v, func(a graph.Arc) {
			if inTree[a.E] && parent[a.To] == -2 {
				parent[a.To] = v
				parentEdge[a.To] = a.E
				queue = append(queue, a.To)
			}
		})
	}
	for v, p := range parent {
		if p == -2 {
			if g.Removed(v) {
				// Removed vertices carry no demand; hang them off the
				// root as inert leaves so the tree stays spanning.
				parent[v] = root
				continue
			}
			return nil, fmt.Errorf("sherman: graph disconnected at %d", v)
		}
	}
	t, err := vtree.New(root, parent, nil)
	if err != nil {
		return nil, err
	}
	orient := make([]float64, n)
	for v := 0; v < n; v++ {
		if v != root && parentEdge[v] >= 0 {
			orient[v] = g.Orientation(parentEdge[v], v)
		}
	}
	return &stRouter{t: t, parentEdge: parentEdge, orient: orient, m: g.M()}, nil
}

// route returns the per-edge flow meeting b exactly on the tree.
func (tr *stRouter) route(b []float64) []float64 {
	sums := tr.t.RouteDemand(b)
	f := make([]float64, tr.m)
	for v := range sums {
		if v == tr.t.Root || tr.parentEdge[v] < 0 {
			// Root, or an inert removed-vertex leaf (whose subtree sum is
			// 0 for any live demand).
			continue
		}
		// sums[v] flows from v toward parent[v].
		f[tr.parentEdge[v]] += sums[v] * tr.orient[v]
	}
	return f
}

// RouteOnMaxWeightST routes the (feasible: Σb=0) demand b exactly on
// the maximum-weight spanning tree of g (weights = capacities) and
// returns the per-edge flow. This is the centralized counterpart of the
// Lemma 9.1 protocol; internal/mst provides the message-passing
// construction of the same tree (identical under the shared tie-break).
func RouteOnMaxWeightST(g *graph.Graph, b []float64) ([]float64, error) {
	tr, err := newSTRouter(g)
	if err != nil {
		return nil, err
	}
	return tr.route(b), nil
}

// signStep writes Sherman's step over edges [lo,hi): out[e] =
// sgn(grad[e])·cap_e·delta·step. Copysign sets the sign without a
// branch on it (random gradient signs defeat branch prediction), and
// it is exact, since rounding to nearest is symmetric in sign. A zero
// or NaN gradient moves its edge by zero.
func signStep(out, grad []float64, edges []graph.Edge, delta, step float64, lo, hi int) {
	for e := lo; e < hi; e++ {
		g := grad[e]
		if g == 0 || g != g {
			out[e] = 0
			continue
		}
		out[e] = math.Copysign(float64(edges[e].Cap)*delta*step, g)
	}
}
