package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"distflow"
	"distflow/internal/graph"
	"distflow/internal/shard"
	"distflow/internal/sherman"
)

// The grid of grid-churn: a 16×16 road grid with capacities uniform in
// [1, 64] drawn from seed 3, served by a 2-shard router. Like the GNP
// instance it is pinned; --seed draws the incident stream.
//
// The client rebuilds its router from the incident-free grid every
// gridEpisode batches. Topology batches resample trees, and whether a
// resample happens to fix or break a corridor persists until the next
// resample, so over one long-lived router the share of escalated
// queries wandered between runs (1–25% measured). Episodes that start
// from the same router make each corridor's behaviour a fresh draw.
const (
	gridSide     = 16
	gridMaxCap   = 64
	gridSeed     = 3
	gridShards   = 2
	gridEpisode  = 4 // batches per router, one per corridor
	gridIncident = 4 // roads whose capacity one capacity batch changes
	gridSLOLimit = 0.5
)

// gridCorridors are the fixed origin–destination corridors: west–east
// and north–south through the middle, and both diagonals corner to
// corner.
func gridCorridors(side int) []distflow.STPair {
	mid := side / 2
	return []distflow.STPair{
		{S: mid * side, T: mid*side + side - 1},
		{S: mid, T: (side-1)*side + mid},
		{S: 0, T: side*side - 1},
		{S: side - 1, T: (side - 1) * side},
	}
}

// churn is the grid's incident stream. Incidents are transient: each
// capacity batch restores the roads the previous one changed and changes
// gridIncident others, and each topology batch reopens the road closed
// by the previous one and closes another. At most one road is closed at
// a time, so the grid stays connected.
type churn struct {
	r         *distflow.Router
	roads     []edge
	live      []int // road → current edge id, -1 while closed
	perturbed []int // roads the last capacity batch changed
	closed    int   // the closed road, -1 for none
	rng       *rand.Rand
}

func newChurn(r *distflow.Router, el *edgeList, rng *rand.Rand) *churn {
	c := &churn{r: r, roads: el.edges, live: make([]int, len(el.edges)), closed: -1, rng: rng}
	for i := range c.live {
		c.live[i] = i
	}
	return c
}

// openRoad draws a road that is currently open.
func (c *churn) openRoad() int {
	for {
		if k := c.rng.Intn(len(c.roads)); c.live[k] >= 0 {
			return k
		}
	}
}

// capacityBatch restores the previous incidents and starts new ones.
func (c *churn) capacityBatch() (*distflow.UpdateResult, error) {
	var edits []distflow.CapEdit
	for _, k := range c.perturbed {
		if c.live[k] >= 0 {
			edits = append(edits, distflow.CapEdit{Edge: c.live[k], Cap: c.roads[k].cap})
		}
	}
	c.perturbed = c.perturbed[:0]
	for j := 0; j < gridIncident; j++ {
		k := c.openRoad()
		c.perturbed = append(c.perturbed, k)
		edits = append(edits, distflow.CapEdit{Edge: c.live[k], Cap: 1 + c.rng.Int63n(gridMaxCap)})
	}
	return c.r.UpdateCapacities(edits)
}

// topologyBatch reopens the closed road and closes another.
func (c *churn) topologyBatch() (*distflow.UpdateResult, error) {
	var edits []distflow.TopoEdit
	reopen := c.closed
	if reopen >= 0 {
		rd := c.roads[reopen]
		edits = append(edits, distflow.AddEdgeEdit(rd.u, rd.v, rd.cap))
	}
	k := c.openRoad()
	edits = append(edits, distflow.DeleteEdgeEdit(c.live[k]))
	res, err := c.r.UpdateTopology(edits)
	if err != nil {
		return nil, err
	}
	if reopen >= 0 {
		c.live[reopen] = res.AddedEdges[0]
	}
	c.live[k], c.closed = -1, k
	return res, nil
}

// churnBatch applies batch i of an incident stream, timed: capacity
// incidents for even i, a road closure for odd i.
func (s *session) churnBatch(log *opLog, ch *churn, i int) {
	if i%2 == 0 {
		s.timeUpdate(log, "UpdateCapacities", int64(i), ch.capacityBatch)
	} else {
		s.timeUpdate(log, "UpdateTopology", int64(i), ch.topologyBatch)
	}
}

// runGridChurn is the grid-churn workload: one closed-loop client
// alternates an update batch with one query on the next corridor, so
// every query lands on a freshly published epoch: empty warm cache,
// rebuilt shard engine, new solver. Every gridEpisode batches the
// incidents clear and the client rebuilds its router.
func runGridChurn(s *session) error {
	side := gridSide
	if s.cfg.tiny {
		side = 6
	}
	el := grid(side, side, gridMaxCap, newRand(gridSeed))
	g := el.build()
	opts := distflow.Options{Shards: gridShards}
	r, builds, err := buildRouters(g, opts, s.tr)
	if err != nil {
		return err
	}
	defer func() { r.Close() }()
	corridors := gridCorridors(side)
	if s.cfg.trace {
		// Replays run on the initial epoch, before the first update.
		s.routerLayers(r)
		if err := s.shardReplays(el, opts, r, g, corridors); err != nil {
			return err
		}
		if err := s.splitReplay(opts); err != nil {
			return err
		}
	}

	rng := newRand(s.cfg.seed)
	log := &opLog{sloLimit: gridSLOLimit}
	gp, err := s.newGridProbe(log, el, opts, newRand(s.cfg.seed+gridProbeSalt))
	if err != nil {
		return err
	}
	defer gp.close()
	ch := newChurn(r, el, rng)
	dur := time.Duration(s.cfg.seconds * float64(time.Second))
	log.before = sampleProc()
	start := time.Now()
	for i := 0; time.Since(start) < dur; i++ {
		if i > 0 && i%gridEpisode == 0 {
			err := log.pause(func() error {
				r.Close()
				g = el.build()
				runtime.GC()
				next, d, err := buildRouter(g, opts, s.tr, int64(i))
				if err != nil {
					return err
				}
				r, ch = next, newChurn(next, el, rng)
				builds = append(builds, d)
				return nil
			})
			if err != nil {
				return err
			}
		}
		s.churnBatch(log, ch, i)

		p := corridors[i%len(corridors)]
		sp := s.tr.begin("Router.MaxFlow", -1, int64(i))
		t0 := time.Now()
		res, err := r.MaxFlow(p.S, p.T)
		d := time.Since(t0).Seconds()
		s.tr.end(sp)
		perr := log.pause(func() error {
			s.recordQuery(log, g, r, p, res, err, d, sp)
			return gp.run(gridProbePerQuery)
		})
		if perr != nil {
			return perr
		}
	}
	log.wall = (time.Since(start) - log.pausedWall()).Seconds()
	log.after = sampleProc()
	gp.close()
	heap := liveHeapMB()
	runtime.KeepAlive(r)
	s.fingerprint(log.answers)
	s.finish(log, builds, heap)
	escalated := 0
	for _, a := range log.answers {
		if a.escalations > 0 {
			escalated++
		}
	}
	cut, err := cutEdges(el, gridShards)
	if err != nil {
		return err
	}
	// Result.Bytes is positive on every sharded query, because the
	// coordinator's reductions are charged too; only cut edges make the
	// shards exchange boundary values.
	crossing := 0
	if cut > 0 {
		crossing = len(log.answers)
	}
	s.notef("cut edges of the %d-shard partition: %d; queries on a graph with cut edges: %d of %d; escalated: %d",
		gridShards, cut, crossing, len(log.answers), escalated)
	return nil
}

// gridProbe is grid-churn's write probe: an incident stream of the
// workload's kind on a router of its own over the same grid, rebuilt every
// gridEpisode batches like the measured router, so that its batches
// are drawn from the same distribution as the measured router's.
// The closed loop gives about one update call per 0.3 s of queries;
// the probe adds gridProbePerQuery timed batches after each query,
// outside the measured wall, so that update_p90_s rests on about a
// thousand calls instead of a hundred. Its rebuilds are not timed.
type gridProbe struct {
	s    *session
	log  *opLog
	el   *edgeList
	opts distflow.Options
	rng  *rand.Rand
	ch   *churn // its router is ch.r
	next int    // batches applied
}

// gridProbePerQuery is the number of probe batches after each query;
// gridProbeSalt separates the probe's incident stream from the measured
// one drawn from the same --seed.
const (
	gridProbePerQuery = 8
	gridProbeSalt     = 1 << 32
)

func (s *session) newGridProbe(log *opLog, el *edgeList, opts distflow.Options, rng *rand.Rand) (*gridProbe, error) {
	gp := &gridProbe{s: s, log: log, el: el, opts: opts, rng: rng}
	return gp, gp.rebuild()
}

// rebuild replaces the probe's router with a fresh one on the
// incident-free grid.
func (gp *gridProbe) rebuild() error {
	if gp.ch != nil {
		gp.ch.r.Close()
		gp.ch = nil
	}
	r, _, err := buildRouter(gp.el.build(), gp.opts, gp.s.tr, warmUpReq)
	if err != nil {
		return err
	}
	gp.ch = newChurn(r, gp.el, gp.rng)
	return nil
}

// run applies k timed batches, alternating capacity and topology
// batches and rebuilding every gridEpisode batches.
func (gp *gridProbe) run(k int) error {
	for ; k > 0; k-- {
		if gp.next > 0 && gp.next%gridEpisode == 0 {
			if err := gp.rebuild(); err != nil {
				return err
			}
		}
		gp.s.churnBatch(gp.log, gp.ch, gp.next)
		gp.next++
	}
	return nil
}

// close releases the probe's router, so that heap_mb counts only the
// measured one; later calls do nothing.
func (gp *gridProbe) close() {
	if gp.ch == nil {
		return
	}
	gp.ch.r.Close()
	gp.ch = nil
	gp.s.notef("update probe: %d batches on a router of its own", gp.next)
}

// The split grid: 16 columns by 130 rows, 2080 vertices, just above
// the engine's 2048-vertex chunk, so the 2-shard partition puts 1040
// vertices on each shard. Cold queries on 2080-vertex grids took
// 0.6–34 s (200 to 15,000 iterations), too long for a closed loop of a
// hundred queries per run, so grid-churn's queries stay on the 16×16
// grid, where every vertex is on one shard, and only the traced run
// times the boundary exchange, here.
const (
	splitCols = 16
	splitRows = 130
)

// splitReplay times one evaluation's four engine operators on the split
// grid, whose shards exchange values across cut edges: the per-layer
// measure of the boundary exchange that grid-churn's own graph cannot
// give. The arrays are a zero flow and a unit demand between the grid's
// two ends, which cost what any other values cost.
func (s *session) splitReplay(opts distflow.Options) error {
	el := grid(splitCols, splitRows, gridMaxCap, newRand(gridSeed))
	cut, err := cutEdges(el, opts.Shards)
	if err != nil {
		return err
	}
	if cut == 0 {
		return fmt.Errorf("split grid %d×%d has no cut edge", splitCols, splitRows)
	}
	rp, err := newReplica(el, opts, s.tr, -1)
	if err != nil {
		return err
	}
	sp := s.tr.begin("replay:shard.NewEngine", -1, warmUpReq)
	eng, err := shard.NewEngine(rp.g, rp.apx.Trees, rp.apx.Scale, opts.Shards)
	s.tr.end(sp)
	if err != nil {
		return fmt.Errorf("split engine: %w", err)
	}
	defer eng.Close()
	g, n, m := rp.g, el.n, len(el.edges)
	f, invCap, w1, grad := make([]float64, m), make([]float64, m), make([]float64, m), make([]float64, m)
	for e, ed := range g.Edges() {
		invCap[e] = 1 / float64(ed.Cap)
	}
	bs := graph.STDemand(n, 0, n-1, 1)
	div, r, pi := make([]float64, n), make([]float64, n), make([]float64, n)
	scratch := rp.apx.NewEvalScratch()
	ta := 2 * rp.apx.Alpha
	var c [4]shard.Cost
	ops := []struct {
		name string
		fn   func()
	}{
		{"SoftMaxGradScaled", func() { _, c[0] = eng.SoftMaxGradScaled(f, invCap, w1) }},
		{"Residual", func() { c[1] = eng.Residual(f, bs, div, r) }},
		{"PotentialRT", func() { _, c[2] = eng.PotentialRT(r, ta, scratch.Sub, scratch.PT, pi) }},
		{"GradientDelta", func() { _, c[3] = eng.GradientDelta(w1, invCap, ta, pi, grad) }},
	}
	total, bytes := 0.0, int64(0)
	for i, op := range ops {
		total += s.callTime("replay:split:shard.Engine."+op.name, -1, kernelCalls, op.fn)
		bytes += c[i].Bytes
	}
	l := s.layer
	l["shard.split_cut_edges"] = float64(cut)
	l["shard.split_bytes_per_eval"] = float64(bytes)
	l["shard.split_eval_call_s"] = total
	s.notef("split grid %d×%d: %d cut edges, %d bytes per evaluation", splitCols, splitRows, cut, bytes)
	return nil
}

// cutEdges counts the edges of el whose endpoints the p-shard partition
// puts on different shards. The engine partitions vertices into chunks
// of at least 2048, so a graph below 2049 vertices has none.
func cutEdges(el *edgeList, p int) (int, error) {
	part, err := shard.NewPartition(el.n, len(el.edges), p)
	if err != nil {
		return 0, err
	}
	cut := 0
	for _, e := range el.edges {
		if part.VertOwner(e.u) != part.VertOwner(e.v) {
			cut++
		}
	}
	return cut, nil
}

// shardReplays is grid-churn's traced replay on the initial epoch. For
// each corridor it queries the router, then replays the same cold solve
// on a replica's flat solver and on a replica solver bound to a replica
// shard engine; both must reproduce the router's Value and Iterations
// bit for bit, which also checks that the sharded and flat answers
// agree. The solver's layers come from the flat replays, the engine's
// from the sharded ones and from its operators timed on the same arrays.
func (s *session) shardReplays(el *edgeList, opts distflow.Options, r *distflow.Router, g *distflow.Graph, corridors []distflow.STPair) error {
	rp, err := newReplica(el, opts, s.tr, -1)
	if err != nil {
		return err
	}
	if rp.apx.Alpha != r.Alpha() {
		s.mismatch = append(s.mismatch, fmt.Sprintf("replica α %v, router α %v", rp.apx.Alpha, r.Alpha()))
	}
	sp := s.tr.begin("replay:shard.NewEngine", -1, warmUpReq)
	eng, err := shard.NewEngine(rp.g, rp.apx.Trees, rp.apx.Scale, opts.Shards)
	s.tr.end(sp)
	if err != nil {
		return fmt.Errorf("replica engine: %w", err)
	}
	defer eng.Close()
	sharded := sherman.NewSolver(rp.g, rp.apx)
	sharded.SetEngine(eng)

	var flatS, shardS, evals, outer, overhead float64
	var last replay
	lastSpan := -1
	for i, p := range corridors {
		req := int64(-1 - i)
		sp := s.tr.begin("Router.MaxFlow", -1, req)
		t0 := time.Now()
		res, err := r.MaxFlow(p.S, p.T)
		d := time.Since(t0).Seconds()
		s.tr.end(sp)
		if err != nil {
			return fmt.Errorf("initial-epoch query %d→%d: %w", p.S, p.T, err)
		}
		s.recordQuery(&opLog{}, g, r, p, res, nil, d, sp)
		sf := s.tr.begin("replay:sherman.Solver.MaxFlowCtx", sp, req)
		flat, err := rp.solve(rp.solver, p.S, p.T)
		s.tr.end(sf)
		if err != nil {
			return err
		}
		ss := s.tr.begin("replay:sherman.Solver.MaxFlowCtx+shard.Engine", sp, req)
		sh, err := rp.solve(sharded, p.S, p.T)
		s.tr.end(ss)
		if err != nil {
			return err
		}
		s.checkReplay(flat, p, res.Value, res.Iterations)
		s.checkReplay(sh, p, res.Value, res.Iterations)
		flatS += flat.seconds
		shardS += sh.seconds
		evals += flat.evals
		outer += float64(flat.res.Outer)
		overhead += d - sh.seconds
		last, lastSpan = flat, sf
	}
	k := float64(len(corridors))
	l := s.layer
	l["sherman.solve_s"] = flatS / k
	l["sherman.evals_per_query"] = evals / k
	l["sherman.outer_per_query"] = outer / k
	l["sherman.eval_s"] = flatS / evals
	l["router.overhead_s"] = overhead / k
	l["shard.eval_over_flat"] = shardS / flatS
	s.notef("replayed %d initial-epoch corridor queries flat and sharded; all bit for bit: %v", len(corridors), len(s.mismatch) == 0)
	return s.kernelLayers(rp, last, corridors[len(corridors)-1], eng, lastSpan)
}
