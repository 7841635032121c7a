package shard

import (
	"slices"
	"sync"

	"distflow/internal/graph"
	"distflow/internal/vtree"
)

// Cost is the measured communication bill of one engine operation:
// rounds is the number of barrier-synchronized supersteps (including
// compute-only steps — they occupy a slot of the synchronous schedule),
// messages the number of cross-shard payloads, and bytes their summed
// payload sizes (8 bytes per float64 value).
type Cost struct {
	Rounds, Messages, Bytes int64
}

// Add accumulates another cost into c.
func (c *Cost) Add(o Cost) {
	c.Rounds += o.Rounds
	c.Messages += o.Messages
	c.Bytes += o.Bytes
}

// shardState is the per-shard private memory: reusable outboxes toward
// every peer, mirrors of non-owned boundary state, and the message
// counters for the current operation.
type shardState struct {
	id int

	// outVals[j] is the reusable send buffer toward peer j (j == id
	// models local delivery: read back directly, never shipped, never
	// counted). The round barrier makes reuse safe: a receiver finishes
	// reading within the superstep the payload was sent in, and the
	// sender only rewrites the buffer in a later superstep.
	outVals [][]float64

	// fMirror/piMirror hold received boundary values of non-owned
	// edges/vertices plus a copy of the owned ones (see exchange). Only
	// slots named by the static exchange lists or owned are ever valid;
	// tests poison the rest to prove the access discipline. A one-shard
	// engine receives nothing and has neither.
	fMirror  []float64
	piMirror []float64
	// view is the local view of the last exchange, read by the next
	// superstep's kernel.
	view []float64

	// recvBufs indexes the current superstep's received value buffers
	// by source shard (reused across supersteps; nil when P = 1).
	recvBufs [][]float64

	msgs, bytes int64
}

func (s *shardState) resetOut() {
	for j := range s.outVals {
		s.outVals[j] = s.outVals[j][:0]
	}
}

// Engine runs solver operators over a partitioned graph and a set of
// virtual trees as sequences of barrier-synchronized supersteps, on P
// shards. With P > 1 each shard is a goroutine and the supersteps
// exchange messages over a channel mesh; a one-shard engine runs every
// superstep on the caller's goroutine, with no goroutines, channels,
// barrier or mirrors. One operation runs at a time (engine.mu);
// concurrent callers serialize, which preserves the per-query
// determinism contract because every operation's result is a pure
// function of its inputs.
type Engine struct {
	// g is finalized and compacted at construction; the kernels read it
	// without finalizing, so shard goroutines never trigger a lazy
	// rebuild of the shared graph.
	g     *graph.Graph
	trees []*vtree.VTree
	scale [][]float64
	part  *Partition
	P     int

	mu sync.Mutex

	// cmd, done, mesh and sched exist only when P > 1.
	cmd  []chan func(s *shardState)
	done chan struct{}
	wg   sync.WaitGroup

	mesh [][]chan []float64

	sh []*shardState

	sched []*sweepSched // per tree

	// edgeSend[i][j]: edges owned by i whose flow values shard j needs
	// to evaluate divergence at its vertices (ascending edge id).
	// vertSend[i][j]: vertices owned by i whose potentials shard j
	// needs to evaluate its edge gradients (ascending vertex id).
	edgeSend [][][]int32
	vertSend [][][]int32

	// partials is coordinator scratch for gathered chunk partials,
	// indexed by global chunk (or tree×chunk) position.
	partials []float64
	// coordVal carries the coordinator's folded scalar(s) to the
	// runner goroutine; the runner reads it only after the barrier.
	coordVal [2]float64

	maxH int

	closeOnce sync.Once
}

// coord is the fixed coordinator shard for gather/broadcast steps. It
// may own no chunk of one kind (say, no vertex chunk when the edges
// span more chunks than the vertices); it still folds the partials.
const coord = 0

// NewEngine partitions g's vertices and edges across the shards and
// precomputes the boundary exchange lists and level-synchronous sweep
// schedules for the supplied trees (with their row scalings). Of the p
// shards asked for it runs at most as many as the larger of g's vertex
// and edge grids has chunks (see activeShards); Shards reports the
// count. The graph and trees must be immutable for the engine's
// lifetime — the epoch system guarantees that for published snapshots.
func NewEngine(g *graph.Graph, trees []*vtree.VTree, scale [][]float64, p int) (*Engine, error) {
	g.Finalize()
	g.Compact()
	part, err := NewPartition(g.N(), g.M(), activeShards(g.N(), g.M(), p))
	if err != nil {
		return nil, err
	}
	p = part.P
	e := &Engine{
		g:     g,
		trees: trees,
		scale: scale,
		part:  part,
		P:     p,
		sh:    make([]*shardState, p),
	}
	for i := range e.sh {
		e.sh[i] = &shardState{id: i, outVals: make([][]float64, p)}
	}
	e.buildBoundary()
	for _, t := range trees {
		e.maxH = max(e.maxH, t.Height())
	}
	np := part.VertChunks
	if tp := len(trees) * part.VertChunks; tp > np {
		np = tp
	}
	if part.EdgeChunks > np {
		np = part.EdgeChunks
	}
	e.partials = make([]float64, np)
	if p > 1 {
		e.spawn()
	}
	return e, nil
}

// spawn gives a multi-shard engine what exchanging messages takes: the
// shards' mirrors and receive buffers, the per-tree sweep schedules, the
// command and mesh channels, and one goroutine per shard.
func (e *Engine) spawn() {
	p := e.P
	e.cmd = make([]chan func(s *shardState), p)
	e.done = make(chan struct{}, p)
	e.mesh = make([][]chan []float64, p)
	for i, s := range e.sh {
		e.cmd[i] = make(chan func(s *shardState))
		e.mesh[i] = make([]chan []float64, p)
		for j := 0; j < p; j++ {
			if j != i {
				e.mesh[i][j] = make(chan []float64, 1)
			}
		}
		s.fMirror = make([]float64, e.part.M)
		s.piMirror = make([]float64, e.part.N)
		s.recvBufs = make([][]float64, p)
	}
	e.sched = make([]*sweepSched, len(e.trees))
	for k, t := range e.trees {
		e.sched[k] = buildSweepSched(t, e.part)
	}
	for i := 0; i < p; i++ {
		e.wg.Add(1)
		go e.loop(i)
	}
}

// Shards returns the number of shards the engine runs.
func (e *Engine) Shards() int { return e.P }

// Partition returns the engine's vertex/edge partition.
func (e *Engine) Partition() *Partition { return e.part }

// Close stops the shard goroutines, if any. The engine must be idle.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		for i := range e.cmd {
			close(e.cmd[i])
		}
		e.wg.Wait()
	})
}

func (e *Engine) loop(id int) {
	defer e.wg.Done()
	s := e.sh[id]
	for fn := range e.cmd[id] {
		s.resetOut()
		fn(s)
		e.done <- struct{}{}
	}
}

// round runs one superstep on all shards — fn on every shard's state,
// its outboxes emptied first — and returns once every shard reaches the
// barrier; a one-shard engine runs fn on the caller. Shard goroutines
// must not panic: an unwound shard would strand peers blocked on its
// messages. The operators validate their arguments on the caller's
// goroutine before the first round (see check).
func (e *Engine) round(c *Cost, fn func(s *shardState)) {
	if e.P == 1 {
		e.sh[0].resetOut()
		fn(e.sh[0])
	} else {
		for i := 0; i < e.P; i++ {
			e.cmd[i] <- fn
		}
		for i := 0; i < e.P; i++ {
			<-e.done
		}
	}
	c.Rounds++
}

// finishCost folds the per-shard message counters into c and resets
// them. Called by the runner after the final barrier of an operation.
func (e *Engine) finishCost(c *Cost) {
	for _, s := range e.sh {
		c.Messages += s.msgs
		c.Bytes += s.bytes
		s.msgs, s.bytes = 0, 0
	}
}

// send ships shard s's outbox for peer j (no-op for self-delivery,
// which models local memory). Empty payloads are never sent — the
// static schedules tell the receiver exactly who ships.
func (e *Engine) send(s *shardState, j int) {
	if j == s.id {
		return
	}
	e.mesh[s.id][j] <- s.outVals[j]
	s.msgs++
	s.bytes += int64(8 * len(s.outVals[j]))
}

// recv returns the payload peer j sent to shard s this superstep; for
// j == s.id it returns s's own outbox (local delivery).
func (e *Engine) recv(s *shardState, j int) []float64 {
	if j == s.id {
		return s.outVals[j]
	}
	return <-e.mesh[j][s.id]
}

// buildBoundary derives the static exchange lists from the edge list:
// for every edge whose endpoints' owners differ from the edge's owner,
// the edge owner ships the flow value to each vertex owner
// (divergence), and each vertex owner ships the endpoint potential to
// the edge owner (gradient). Lists are built in ascending edge order,
// then the vertex lists are deduplicated — both sides iterate the same
// slices, so positions encode identity and no ids travel.
func (e *Engine) buildBoundary() {
	p := e.P
	e.edgeSend = make([][][]int32, p)
	e.vertSend = make([][][]int32, p)
	for i := 0; i < p; i++ {
		e.edgeSend[i] = make([][]int32, p)
		e.vertSend[i] = make([][]int32, p)
	}
	pt := e.part
	edges := e.g.Edges()
	for ei := range edges {
		oe := pt.EdgeOwner(ei)
		u, v := edges[ei].U, edges[ei].V
		ou, ov := pt.VertOwner(u), pt.VertOwner(v)
		if ou != oe {
			e.edgeSend[oe][ou] = appendDedup(e.edgeSend[oe][ou], int32(ei))
			e.vertSend[ou][oe] = append(e.vertSend[ou][oe], int32(u))
		}
		if ov != oe && ov != ou {
			e.edgeSend[oe][ov] = appendDedup(e.edgeSend[oe][ov], int32(ei))
		}
		if ov != oe {
			e.vertSend[ov][oe] = append(e.vertSend[ov][oe], int32(v))
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			e.vertSend[i][j] = sortDedup(e.vertSend[i][j])
		}
	}
}

func appendDedup(s []int32, x int32) []int32 {
	if n := len(s); n > 0 && s[n-1] == x {
		return s
	}
	return append(s, x)
}

// sortDedup sorts ascending and removes duplicates in place.
func sortDedup(s []int32) []int32 {
	if len(s) < 2 {
		return s
	}
	slices.Sort(s)
	out := s[:1]
	for _, x := range s[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
