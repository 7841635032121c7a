package shard

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"distflow/internal/capprox"
	"distflow/internal/graph"
	"distflow/internal/numutil"
	"distflow/internal/vtree"
)

// shardCounts spans the interesting regimes: P=1 (degenerate, zero
// messages), P in the middle, and P=8 which at the test sizes exceeds
// the vertex chunk count, so leading shards (including the
// coordinator) own no vertices.
var shardCounts = []int{1, 2, 3, 4, 8}

type fixture struct {
	g     *graph.Graph
	trees []*vtree.VTree
	scale [][]float64
	apx   *capprox.Approximator
	rng   *rand.Rand
}

// randTree samples a random attachment tree rooted at 0: each vertex
// attaches to a uniformly random earlier vertex, yielding O(log n)
// height with wide levels — the shape the solver's sampled trees have.
func randTree(t testing.TB, n int, rng *rand.Rand) *vtree.VTree {
	t.Helper()
	parent := make([]int, n)
	capv := make([]float64, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = rng.Intn(v)
		capv[v] = float64(1 + rng.Intn(64))
	}
	vt, err := vtree.New(0, parent, capv)
	if err != nil {
		t.Fatalf("vtree.New: %v", err)
	}
	return vt
}

// pathTree builds a depth-(n−1) chain, the worst case for the
// level-synchronous sweeps (one superstep per vertex).
func pathTree(t *testing.T, n int) *vtree.VTree {
	t.Helper()
	parent := make([]int, n)
	parent[0] = -1
	for v := 1; v < n; v++ {
		parent[v] = v - 1
	}
	vt, err := vtree.New(0, parent, nil)
	if err != nil {
		t.Fatalf("vtree.New: %v", err)
	}
	return vt
}

// newFixture builds a connected random graph on n vertices with k
// random trees and positive row scalings (a few zero-scale slots to
// exercise the excluded-row path).
func newFixture(t testing.TB, n, k int, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := graph.CapUniform(graph.GNPSparse(n, 4/float64(n), rng), 1000, rng)
	g.Finalize()
	fx := &fixture{g: g, rng: rng}
	for i := 0; i < k; i++ {
		fx.trees = append(fx.trees, randTree(t, n, rng))
	}
	for range fx.trees {
		sc := make([]float64, n)
		for v := range sc {
			sc[v] = 0.5 + rng.Float64()
			if rng.Intn(97) == 0 {
				sc[v] = 0
			}
		}
		fx.scale = append(fx.scale, sc)
	}
	fx.apx = &capprox.Approximator{Trees: fx.trees, Scale: fx.scale}
	return fx
}

func (fx *fixture) engine(t testing.TB, p int) *Engine {
	t.Helper()
	e, err := NewEngine(fx.g, fx.trees, fx.scale, p)
	if err != nil {
		t.Fatalf("NewEngine(P=%d): %v", p, err)
	}
	t.Cleanup(e.Close)
	return e
}

func (fx *fixture) randEdgeVec() []float64 {
	f := make([]float64, fx.g.M())
	for i := range f {
		f[i] = fx.rng.NormFloat64() * 3
	}
	return f
}

func (fx *fixture) randVertVec() []float64 {
	b := make([]float64, fx.g.N())
	for i := range b {
		b[i] = fx.rng.NormFloat64()
	}
	return b
}

// poisonMirrors fills every shard's boundary mirrors with NaN. The
// exchange rounds must overwrite every slot an operator reads; a NaN
// leaking into a result proves a read outside the static schedule.
func poisonMirrors(e *Engine) {
	for _, s := range e.sh {
		for i := range s.fMirror {
			s.fMirror[i] = math.NaN()
		}
		for i := range s.piMirror {
			s.piMirror[i] = math.NaN()
		}
	}
}

func sameF64(t testing.TB, what string, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: got %v (%#x), want %v (%#x)", what, got,
			math.Float64bits(got), want, math.Float64bits(want))
	}
}

func sameVec(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] got %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestPartitionInvariants(t *testing.T) {
	for _, tc := range []struct{ n, m, p int }{
		{5000, 15000, 3}, {5000, 15000, 8}, {100, 40, 8}, {1, 0, 4}, {2048 * 9, 2048 * 5, 5},
	} {
		pt, err := NewPartition(tc.n, tc.m, tc.p)
		if err != nil {
			t.Fatalf("NewPartition(%v): %v", tc, err)
		}
		prevHi := 0
		for k := 0; k < tc.p; k++ {
			if pt.VertLo[k] != prevHi {
				t.Fatalf("%v: shard %d vert range not contiguous", tc, k)
			}
			if pt.VertLo[k]%pt.VertSize != 0 && pt.VertLo[k] != tc.n {
				t.Fatalf("%v: shard %d vert lo %d not chunk aligned", tc, k, pt.VertLo[k])
			}
			prevHi = pt.VertHi[k]
			for v := pt.VertLo[k]; v < pt.VertHi[k]; v++ {
				if pt.VertOwner(v) != k {
					t.Fatalf("%v: VertOwner(%d) = %d, want %d", tc, v, pt.VertOwner(v), k)
				}
			}
			for e := pt.EdgeLo[k]; e < pt.EdgeHi[k]; e++ {
				if pt.EdgeOwner(e) != k {
					t.Fatalf("%v: EdgeOwner(%d) = %d, want %d", tc, e, pt.EdgeOwner(e), k)
				}
			}
		}
		if prevHi != tc.n {
			t.Fatalf("%v: vert ranges cover %d of %d", tc, prevHi, tc.n)
		}
	}
	if _, err := NewPartition(10, 10, 0); err == nil {
		t.Fatal("P=0 accepted")
	}
	if _, err := NewPartition(10, 10, 65); err == nil {
		t.Fatal("P=65 accepted")
	}
}

func TestSoftMaxGradScaledEquivalence(t *testing.T) {
	fx := newFixture(t, 5000, 1, 1)
	f := fx.randEdgeVec()
	sc := make([]float64, fx.g.M())
	for i := range sc {
		sc[i] = 0.1 + fx.rng.Float64()
	}
	wantGrad := make([]float64, fx.g.M())
	want := numutil.SoftMaxGradScaledPar(f, sc, wantGrad)
	for _, p := range shardCounts {
		e := fx.engine(t, p)
		grad := make([]float64, fx.g.M())
		got, cost := e.SoftMaxGradScaled(f, sc, grad)
		sameF64(t, "smax value", got, want)
		sameVec(t, "smax grad", grad, wantGrad)
		if p == 1 && (cost.Messages != 0 || cost.Bytes != 0) {
			t.Errorf("P=1 smax cost %+v, want zero messages", cost)
		}
		if cost.Rounds != 3 {
			t.Errorf("P=%d smax rounds = %d, want 3", p, cost.Rounds)
		}
	}
}

func TestResidualEquivalence(t *testing.T) {
	fx := newFixture(t, 5000, 1, 2)
	f := fx.randEdgeVec()
	bs := fx.randVertVec()
	wantDiv := make([]float64, fx.g.N())
	fx.g.DivergenceInto(f, wantDiv)
	wantR := make([]float64, fx.g.N())
	for v := range wantR {
		wantR[v] = bs[v] - wantDiv[v]
	}
	for _, p := range shardCounts {
		e := fx.engine(t, p)
		poisonMirrors(e)
		div := make([]float64, fx.g.N())
		r := make([]float64, fx.g.N())
		cost := e.Residual(f, bs, div, r)
		sameVec(t, "div", div, wantDiv)
		sameVec(t, "r", r, wantR)
		if p == 1 && cost.Messages != 0 {
			t.Errorf("P=1 residual messages = %d", cost.Messages)
		}
		// Plain divergence (r == nil).
		div2 := make([]float64, fx.g.N())
		e.Residual(f, nil, div2, nil)
		sameVec(t, "div (r=nil)", div2, wantDiv)
	}
}

func TestPotentialRTEquivalence(t *testing.T) {
	fx := newFixture(t, 5000, 3, 3)
	r := fx.randVertVec()
	ws := fx.apx.NewEvalScratch()
	wantPi := make([]float64, fx.g.N())
	want := fx.apx.PotentialRT(r, 0.75, ws, wantPi)
	for _, p := range shardCounts {
		e := fx.engine(t, p)
		sub := make([][]float64, len(fx.trees))
		pt := make([][]float64, len(fx.trees))
		for k := range sub {
			sub[k] = make([]float64, fx.g.N())
			pt[k] = make([]float64, fx.g.N())
		}
		pi := make([]float64, fx.g.N())
		got, cost := e.PotentialRT(r, 0.75, sub, pt, pi)
		sameF64(t, "phi2", got, want)
		sameVec(t, "pi", pi, wantPi)
		if p == 1 && cost.Messages != 0 {
			t.Errorf("P=1 PotentialRT messages = %d", cost.Messages)
		}
		if cost.Rounds < 5 {
			t.Errorf("P=%d PotentialRT rounds = %d, implausibly few", p, cost.Rounds)
		}
	}
}

func TestGradientDeltaEquivalence(t *testing.T) {
	fx := newFixture(t, 5000, 1, 4)
	m := fx.g.M()
	w1 := fx.randEdgeVec()
	invCap := make([]float64, m)
	for i := range invCap {
		invCap[i] = 1 / float64(1+fx.rng.Intn(1000))
	}
	pi := fx.randVertVec()
	const ta = 1.5
	wantGrad := make([]float64, m)
	want := fx.g.GradientInto(w1, invCap, ta, pi, wantGrad)
	for _, p := range shardCounts {
		e := fx.engine(t, p)
		poisonMirrors(e)
		grad := make([]float64, m)
		got, cost := e.GradientDelta(w1, invCap, ta, pi, grad)
		sameF64(t, "delta", got, want)
		sameVec(t, "grad", grad, wantGrad)
		if p == 1 && cost.Messages != 0 {
			t.Errorf("P=1 GradientDelta messages = %d", cost.Messages)
		}
	}
}

func TestNormRbEquivalence(t *testing.T) {
	fx := newFixture(t, 5000, 3, 5)
	b := fx.randVertVec()
	want := fx.apx.NormRb(b)
	for _, p := range shardCounts {
		e := fx.engine(t, p)
		sub := make([][]float64, len(fx.trees))
		for k := range sub {
			sub[k] = make([]float64, fx.g.N())
		}
		got, _ := e.NormRb(b, sub)
		sameF64(t, "normRb", got, want)
	}
}

// TestPathTreeSweeps drives the sweeps through a depth-299 chain — one
// superstep per level, every level a single vertex — across shard
// counts, against the sequential sweeps.
func TestPathTreeSweeps(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(8))
	g := graph.CapUniform(graph.GNPSparse(n, 4/float64(n), rng), 100, rng)
	g.Finalize()
	tr := pathTree(t, n)
	scale := make([]float64, n)
	for i := range scale {
		scale[i] = 0.5 + rng.Float64()
	}
	apx := &capprox.Approximator{Trees: []*vtree.VTree{tr}, Scale: [][]float64{scale}}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	wantNorm := apx.NormRb(b)
	ws := apx.NewEvalScratch()
	wantPi := make([]float64, n)
	wantPhi := apx.PotentialRT(b, 2, ws, wantPi)
	for _, p := range shardCounts {
		e, err := NewEngine(g, apx.Trees, apx.Scale, p)
		if err != nil {
			t.Fatal(err)
		}
		sub := [][]float64{make([]float64, n)}
		pt := [][]float64{make([]float64, n)}
		gotNorm, _ := e.NormRb(b, sub)
		sameF64(t, "chain normRb", gotNorm, wantNorm)
		pi := make([]float64, n)
		gotPhi, cost := e.PotentialRT(b, 2, sub, pt, pi)
		sameF64(t, "chain phi2", gotPhi, wantPhi)
		sameVec(t, "chain pi", pi, wantPi)
		// 2·(n−1) sweep supersteps plus the five compute/reduce rounds.
		if want := int64(2*(n-1) + 5); cost.Rounds != want {
			t.Errorf("P=%d chain PotentialRT rounds = %d, want %d", p, cost.Rounds, want)
		}
		e.Close()
	}
}

// TestRemoteNeighborhood pins the satellite edge case: a vertex whose
// entire neighborhood lives on another shard. With n > one chunk and
// every edge incident to vertex 0 owned by the last shard, shard 0
// evaluates vertex 0's divergence purely from received mirrors.
func TestRemoteNeighborhood(t *testing.T) {
	const n = 4100 // two vertex chunks
	g := graph.New(n)
	// Edges are added last so their ids land in the top edge chunks,
	// away from vertex 0's shard at P=2.
	rng := rand.New(rand.NewSource(9))
	for v := 1; v < n-1; v++ {
		g.AddEdge(v, v+1, int64(1+rng.Intn(50)))
	}
	for i := 0; i < 8; i++ {
		g.AddEdge(0, n-1-i, int64(1+rng.Intn(50)))
	}
	g.Finalize()
	f := make([]float64, g.M())
	for i := range f {
		f[i] = rng.NormFloat64()
	}
	wantDiv := make([]float64, n)
	g.DivergenceInto(f, wantDiv)
	for _, p := range []int{2, 4, 8} {
		e, err := NewEngine(g, nil, nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if e.Partition().VertOwner(0) == e.Partition().EdgeOwner(g.M()-1) {
			t.Fatalf("P=%d: construction failed to separate vertex 0 from its edges", p)
		}
		poisonMirrors(e)
		div := make([]float64, n)
		e.Residual(f, nil, div, nil)
		sameVec(t, "remote-neighborhood div", div, wantDiv)
		e.Close()
	}
}

// TestMoreShardsThanChunks pins the other edge case: more
// shards than vertex chunks. At P=8 the fixture's 5000 vertices span
// three chunks and its edges eight, so all eight shards run; the
// trailing shards own every vertex, and the coordinator (shard 0) owns
// none and still folds the reductions.
func TestMoreShardsThanChunks(t *testing.T) {
	fx := newFixture(t, 5000, 2, 10)
	const p = 8
	e := fx.engine(t, p)
	if e.Shards() != p {
		t.Fatalf("engine runs %d shards, want %d", e.Shards(), p)
	}
	if e.Partition().VertCount(0) != 0 {
		t.Fatal("expected a coordinator shard without vertices")
	}
	f := fx.randEdgeVec()
	sc := make([]float64, fx.g.M())
	for i := range sc {
		sc[i] = 0.1 + fx.rng.Float64()
	}
	wantGrad := make([]float64, fx.g.M())
	want := numutil.SoftMaxGradScaledPar(f, sc, wantGrad)
	grad := make([]float64, fx.g.M())
	got, _ := e.SoftMaxGradScaled(f, sc, grad)
	sameF64(t, "tiny smax", got, want)
	sameVec(t, "tiny smax grad", grad, wantGrad)

	b := fx.randVertVec()
	sub := make([][]float64, len(fx.trees))
	pt := make([][]float64, len(fx.trees))
	for k := range sub {
		sub[k] = make([]float64, fx.g.N())
		pt[k] = make([]float64, fx.g.N())
	}
	ws := fx.apx.NewEvalScratch()
	wantPi := make([]float64, fx.g.N())
	wantPhi := fx.apx.PotentialRT(b, 3, ws, wantPi)
	pi := make([]float64, fx.g.N())
	gotPhi, _ := e.PotentialRT(b, 3, sub, pt, pi)
	sameF64(t, "tiny phi2", gotPhi, wantPhi)
	sameVec(t, "tiny pi", pi, wantPi)

	gotNorm, _ := e.NormRb(b, sub)
	sameF64(t, "tiny normRb", gotNorm, fx.apx.NormRb(b))
}

// settledGoroutines returns runtime.NumGoroutine once the count has
// stopped falling. Close returns when every shard goroutine has called
// wg.Done, but they may not have exited yet; the engines of earlier tests
// would otherwise leave the count moving under a measurement. A goroutine
// that an engine starts and parks never exits, so settling cannot hide
// it.
func settledGoroutines() int {
	n, stable := runtime.NumGoroutine(), 0
	for i := 0; stable < 10 && i < 100000; i++ {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m != n {
			n, stable = m, 0
			continue
		}
		stable++
	}
	return n
}

// TestOneChunkRunsInline builds engines asked for P ∈ {2, 8} on a graph
// whose vertices and edges each fit one chunk. They run one shard on the
// caller's goroutine: no goroutine is started or left behind, every
// operator matches the flat kernels bit for bit, and each bill has no
// messages or bytes and the rounds of an engine built at P = 1. An
// engine can only start goroutines, so the checks fail on a count above
// the one before construction; a goroutine of an earlier test that
// exits meanwhile, late on a loaded machine, lowers the count and must
// not fail them.
func TestOneChunkRunsInline(t *testing.T) {
	fx := newFixture(t, 150, 2, 13)
	n, m := fx.g.N(), fx.g.M()
	f, bs, b := fx.randEdgeVec(), fx.randVertVec(), fx.randVertVec()
	sc := make([]float64, m)
	for i := range sc {
		sc[i] = 0.1 + fx.rng.Float64()
	}
	// The flat references come first: their tree passes may start pool
	// workers, which must not count against the engines.
	const ta = 1.5
	wantW1 := make([]float64, m)
	wantSmax := numutil.SoftMaxGradScaledPar(f, sc, wantW1)
	wantDiv, wantR := make([]float64, n), make([]float64, n)
	fx.g.ResidualInto(f, bs, wantDiv, wantR)
	ws := fx.apx.NewEvalScratch()
	wantPi := make([]float64, n)
	wantPhi := fx.apx.PotentialRT(wantR, ta, ws, wantPi)
	wantGrad := make([]float64, m)
	wantDelta := fx.g.GradientInto(wantW1, sc, ta, wantPi, wantGrad)
	wantNorm := fx.apx.NormRbInto(b, ws.Sub)

	run := func(e *Engine) []Cost {
		w1, grad := make([]float64, m), make([]float64, m)
		div, r, pi := make([]float64, n), make([]float64, n), make([]float64, n)
		got := make([]Cost, 5)
		var v float64
		v, got[0] = e.SoftMaxGradScaled(f, sc, w1)
		sameF64(t, "smax", v, wantSmax)
		sameVec(t, "smax grad", w1, wantW1)
		got[1] = e.Residual(f, bs, div, r)
		sameVec(t, "div", div, wantDiv)
		sameVec(t, "r", r, wantR)
		v, got[2] = e.PotentialRT(r, ta, ws.Sub, ws.PT, pi)
		sameF64(t, "phi2", v, wantPhi)
		sameVec(t, "pi", pi, wantPi)
		v, got[3] = e.GradientDelta(w1, sc, ta, pi, grad)
		sameF64(t, "delta", v, wantDelta)
		sameVec(t, "grad", grad, wantGrad)
		v, got[4] = e.NormRb(b, ws.Sub)
		sameF64(t, "normRb", v, wantNorm)
		return got
	}
	want := run(fx.engine(t, 1))
	for _, p := range []int{2, 8} {
		before := settledGoroutines()
		e, err := NewEngine(fx.g, fx.trees, fx.scale, p)
		if err != nil {
			t.Fatalf("NewEngine(P=%d): %v", p, err)
		}
		if e.Shards() != 1 {
			t.Fatalf("P=%d: engine runs %d shards on one chunk, want 1", p, e.Shards())
		}
		got := run(e)
		if g := settledGoroutines(); g > before {
			t.Errorf("P=%d: %d goroutines after the operators, %d before construction", p, g, before)
		}
		e.Close()
		if g := settledGoroutines(); g > before {
			t.Errorf("P=%d: %d goroutines after Close, %d before construction", p, g, before)
		}
		for i, c := range got {
			if c.Messages != 0 || c.Bytes != 0 || c.Rounds != want[i].Rounds {
				t.Errorf("P=%d operator %d: cost %+v, want %d rounds and no traffic", p, i, c, want[i].Rounds)
			}
		}
	}
}

// TestCostAccounting pins the exchange protocol: the exact rounds,
// messages and bytes of every operator at P ∈ {1, 2, 4, 8} on one
// fixture (5000 vertices in three chunks, ~1.5·10⁴ edges in eight,
// three trees, so P ≥ 4 leaves shards without vertices). The schedules are
// static, so a second run must bill the same; a change to who ships
// what to whom changes these numbers.
func TestCostAccounting(t *testing.T) {
	fx := newFixture(t, 5000, 3, 11)
	n, m := fx.g.N(), fx.g.M()
	f, bs := fx.randEdgeVec(), fx.randVertVec()
	sc := make([]float64, m)
	for i := range sc {
		sc[i] = 0.1 + fx.rng.Float64()
	}
	w1, grad := make([]float64, m), make([]float64, m)
	div, r, pi := make([]float64, n), make([]float64, n), make([]float64, n)
	ws := fx.apx.NewEvalScratch()
	ops := []string{"SoftMaxGradScaled", "Residual", "PotentialRT", "GradientDelta", "NormRb"}
	want := map[int][]Cost{
		1: {{3, 0, 0}, {1, 0, 0}, {41, 0, 0}, {2, 0, 0}, {20, 0, 0}},
		2: {{3, 4, 80}, {1, 2, 65192}, {41, 38, 87080}, {2, 3, 34360}, {20, 18, 43504}},
		4: {{3, 12, 144}, {1, 8, 129600}, {41, 108, 120256}, {2, 11, 75904}, {20, 51, 60056}},
		8: {{3, 28, 224}, {1, 18, 160400}, {41, 108, 120256}, {2, 25, 111664}, {20, 51, 60056}},
	}
	for _, p := range []int{1, 2, 4, 8} {
		e := fx.engine(t, p)
		run := func() []Cost {
			got := make([]Cost, 5)
			_, got[0] = e.SoftMaxGradScaled(f, sc, w1)
			got[1] = e.Residual(f, bs, div, r)
			_, got[2] = e.PotentialRT(r, 1.5, ws.Sub, ws.PT, pi)
			_, got[3] = e.GradientDelta(w1, sc, 1.5, pi, grad)
			_, got[4] = e.NormRb(bs, ws.Sub)
			return got
		}
		for pass := 0; pass < 2; pass++ {
			for i, c := range run() {
				if c != want[p][i] {
					t.Errorf("P=%d %s pass %d: cost %+v, want %+v", p, ops[i], pass, c, want[p][i])
				}
			}
		}
	}
}

// TestArgumentChecksOnCaller passes each operator one mis-sized
// argument at P=2: the panic must surface on the caller's goroutine,
// where recover catches it, before any superstep runs — a panic inside
// a shard goroutine would kill the process instead. The engine must
// then still serve a well-formed call.
func TestArgumentChecksOnCaller(t *testing.T) {
	fx := newFixture(t, 5000, 2, 12)
	n, m := fx.g.N(), fx.g.M()
	e := fx.engine(t, 2)
	ws := fx.apx.NewEvalScratch()
	edge, vert, short := make([]float64, m), make([]float64, n), make([]float64, 10)
	for _, tc := range []struct {
		op string
		fn func()
	}{
		{"SoftMaxGradScaled", func() { e.SoftMaxGradScaled(edge, short, make([]float64, m)) }},
		{"Residual", func() { e.Residual(edge, vert, make([]float64, n), short) }},
		{"PotentialRT", func() { e.PotentialRT(vert, 1, ws.Sub, [][]float64{short, short}, make([]float64, n)) }},
		{"GradientDelta", func() { e.GradientDelta(edge, edge, 1, short, make([]float64, m)) }},
		{"NormRb", func() { e.NormRb(short, ws.Sub) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted a mis-sized argument", tc.op)
				}
			}()
			tc.fn()
		}()
	}
	if _, c := e.NormRb(vert, ws.Sub); c.Rounds == 0 {
		t.Errorf("engine did not run after the rejected calls: cost %+v", c)
	}
}
