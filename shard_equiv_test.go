package distflow

// Sharded-execution equivalence: Options.Shards changes the execution
// substrate (internal/shard: P message-passing shard goroutines, or one
// shard on the caller when the graph fits one chunk) but must not
// change a single bit of any result. These tests pin that contract end
// to end through the Router, across shard counts, worker counts, and
// re-sharding republishes. The CI shard-matrix job runs them under
// GOMAXPROCS {1,4} × DISTFLOW_SHARDS {1,4} with -race.

import (
	"math"
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// matrixShards returns the shard counts to sweep: the built-in ladder
// plus the CI matrix's DISTFLOW_SHARDS value when set.
func matrixShards(t *testing.T) []int {
	return withEnvShards(t, 1, 2, 4, 8)
}

// withEnvShards returns ps plus the CI matrix's DISTFLOW_SHARDS value
// when set.
func withEnvShards(t *testing.T, ps ...int) []int {
	if s := os.Getenv("DISTFLOW_SHARDS"); s != "" {
		p, err := strconv.Atoi(s)
		if err != nil || p < 1 || p > 64 {
			t.Fatalf("DISTFLOW_SHARDS=%q: want an integer in [1,64]", s)
		}
		ps = append(ps, p)
	}
	return ps
}

// shardTestGraph is a 600-vertex random graph. Its vertices and its
// ~1800 edges each fit one par chunk, so every engine over it runs one
// shard on the caller.
func shardTestGraph(seed int64) *Graph { return randomShardGraph(seed, 600) }

// randomShardGraph is a random attachment tree on n vertices plus 2n
// random edges.
func randomShardGraph(seed int64, n int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v), 1+rng.Int63n(50))
	}
	for k := 0; k < 2*n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 1+rng.Int63n(50))
		}
	}
	return g
}

func bitEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestShardedMaxFlowBitIdentical(t *testing.T) {
	g0 := shardTestGraph(42)
	base, err := NewRouter(g0, Options{Seed: 3, DisableWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.MaxFlow(0, g0.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if want.Messages != 0 || want.Bytes != 0 {
		t.Fatalf("unsharded result reports traffic: %d msgs, %d bytes", want.Messages, want.Bytes)
	}
	for _, p := range matrixShards(t) {
		g := shardTestGraph(42)
		r, err := NewRouter(g, Options{Seed: 3, DisableWarmStart: true, Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.MaxFlow(0, g.N()-1)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if math.Float64bits(res.Value) != math.Float64bits(want.Value) {
			t.Errorf("P=%d: value %v, want %v (bitwise)", p, res.Value, want.Value)
		}
		bitEqual(t, "flow", res.Flow, want.Flow)
		if res.Rounds <= 0 {
			t.Errorf("P=%d: no rounds reported", p)
		}
		// One chunk, one shard: the engine measures its supersteps and
		// ships nothing (TestShardedMultiChunkTraffic covers traffic).
		if res.MeasuredRounds <= 0 {
			t.Errorf("P=%d: no measured rounds — the query did not run on the engine", p)
		}
		if res.Messages != 0 || res.Bytes != 0 {
			t.Errorf("P=%d: measured traffic (%d msgs, %d bytes) on a one-chunk graph, want none", p, res.Messages, res.Bytes)
		}
		r.Close()
	}
}

// TestShardedWorkerIndependence crosses shard counts with par worker
// counts: the engine never touches the par pool, and the baseline
// phases that still use it are worker-count deterministic, so every
// (P, workers) cell must produce the same bits.
func TestShardedWorkerIndependence(t *testing.T) {
	prev := SetParallelism(1)
	defer SetParallelism(prev)
	var want *Result
	for _, workers := range []int{1, 4} {
		SetParallelism(workers)
		for _, p := range []int{2, 4} {
			g := shardTestGraph(7)
			r, err := NewRouter(g, Options{Seed: 5, DisableWarmStart: true, Shards: p})
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.MaxFlow(0, g.N()-1)
			if err != nil {
				t.Fatalf("P=%d workers=%d: %v", p, workers, err)
			}
			if want == nil {
				want = res
			} else {
				if math.Float64bits(res.Value) != math.Float64bits(want.Value) {
					t.Errorf("P=%d workers=%d: value %v, want %v", p, workers, res.Value, want.Value)
				}
				bitEqual(t, "flow", res.Flow, want.Flow)
			}
			r.Close()
		}
	}
}

// TestSetShardsRepublish re-shards a live router across the bench
// sweep's ladder and back: each switch publishes a lightweight epoch
// sharing the frozen graph and approximator, results stay bit-
// identical, and drained epochs release their engines.
func TestSetShardsRepublish(t *testing.T) {
	g := shardTestGraph(11)
	r, err := NewRouter(g, Options{Seed: 9, DisableWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want, err := r.MaxFlow(0, g.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	seq := r.EpochSeq()
	for _, p := range []int{1, 2, 4, 8, 0} {
		if err := r.SetShards(p); err != nil {
			t.Fatalf("SetShards(%d): %v", p, err)
		}
		if got := r.EpochSeq(); got != seq+1 {
			t.Fatalf("SetShards(%d): epoch seq %d, want %d", p, got, seq+1)
		}
		seq++
		res, err := r.MaxFlow(0, g.N()-1)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if math.Float64bits(res.Value) != math.Float64bits(want.Value) {
			t.Errorf("P=%d: value %v, want %v", p, res.Value, want.Value)
		}
		bitEqual(t, "flow", res.Flow, want.Flow)
	}
	if err := r.SetShards(0); err != nil {
		t.Fatal(err)
	}
	if err := r.SetShards(65); err == nil {
		t.Error("SetShards(65) accepted")
	}
	if retired, drained := r.EpochsRetired(), r.EpochsDrained(); retired != drained {
		t.Errorf("%d retired epochs but %d drained — engines may be leaked", retired, drained)
	}
}

// TestShardedUpdatePublish checks the fork→publish update path rebuilds
// the engine for the new epoch: after a capacity update on a sharded
// router, queries still run sharded and still match an unsharded
// router that applied the same update.
func TestShardedUpdatePublish(t *testing.T) {
	mk := func(shards int) (*Router, *Graph) {
		g := shardTestGraph(13)
		r, err := NewRouter(g, Options{Seed: 2, DisableWarmStart: true, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		return r, g
	}
	edits := []CapEdit{{Edge: 0, Cap: 7}, {Edge: 5, Cap: 91}, {Edge: 17, Cap: 2}}
	base, g0 := mk(0)
	if _, err := base.UpdateCapacities(edits); err != nil {
		t.Fatal(err)
	}
	want, err := base.MaxFlow(0, g0.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, g1 := mk(3)
	defer sharded.Close()
	if _, err := sharded.UpdateCapacities(edits); err != nil {
		t.Fatal(err)
	}
	res, err := sharded.MaxFlow(0, g1.N()-1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(res.Value) != math.Float64bits(want.Value) {
		t.Errorf("post-update value %v, want %v", res.Value, want.Value)
	}
	bitEqual(t, "post-update flow", res.Flow, want.Flow)
	if res.MeasuredRounds <= 0 {
		t.Error("post-update sharded query reports no measured rounds — engine not rebuilt at publish?")
	}
	if res.Messages != 0 || res.Bytes != 0 {
		t.Errorf("post-update query on a one-chunk graph measured traffic (%d msgs, %d bytes), want none", res.Messages, res.Bytes)
	}
}

// TestShardedMultiChunkTraffic is the bit-identity check on a graph that
// spans two vertex chunks and four edge chunks, so engines asked for
// P = 2 and P = 4 run every shard and exchange messages through the
// Router: values, flows, rounds and measured rounds match the unsharded
// answer and each other, and the traffic is real.
func TestShardedMultiChunkTraffic(t *testing.T) {
	const n = 2200
	g0 := randomShardGraph(21, n)
	base, err := NewRouter(g0, Options{Seed: 3, DisableWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.MaxFlow(0, n-1)
	if err != nil {
		t.Fatal(err)
	}
	ps := withEnvShards(t, 2, 4)
	var first *Result
	for _, p := range ps {
		g := randomShardGraph(21, n)
		r, err := NewRouter(g, Options{Seed: 3, DisableWarmStart: true, Shards: p})
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.MaxFlow(0, n-1)
		r.Close()
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if math.Float64bits(res.Value) != math.Float64bits(want.Value) {
			t.Errorf("P=%d: value %v, want %v (bitwise)", p, res.Value, want.Value)
		}
		bitEqual(t, "flow", res.Flow, want.Flow)
		if p > 1 && (res.Messages == 0 || res.Bytes == 0) {
			t.Errorf("P=%d: no measured traffic (%d msgs, %d bytes)", p, res.Messages, res.Bytes)
		}
		if first == nil {
			first = res
		} else if res.Rounds != first.Rounds || res.MeasuredRounds != first.MeasuredRounds {
			t.Errorf("P=%d: rounds %d (measured %d), want %d (%d) as at P=%d",
				p, res.Rounds, res.MeasuredRounds, first.Rounds, first.MeasuredRounds, ps[0])
		}
	}
}

// TestGridCorridorRounds pins the charged and measured rounds of
// perfbench's grid-churn instance — the 16×16 grid with capacities drawn
// from seed 3, on a 2-shard router — over its four corridors on the
// initial epoch, with each corridor's escalations and a value within
// 1% of the exact optimum. The grid fits one chunk, so its engine runs
// one shard on the caller; the measured rounds come from an engine that
// ran both shards as goroutines, and the one-shard bill must match them.
//
// Rows 128→143 and 8→248 stop where they always did; each also pays one
// s-t cut sweep on a round that fails its residual test, the 46-round
// certificate phase (D + ⌈√n⌉ = 30 + 16), so only their charged rounds
// moved (596485 → 596531, 567636 → 567682). 0→255 now stops on its tree
// cut certificate after the first round (662668 → 192570). 15→240 still
// escalates once — its sweep finds the exact min cut (37), and the
// first attempt's answer is 1.34× below it when its second round stalls
// — but the attempt now ends there, and the escalated attempt starts
// from its flow and stops on the swept cut (4820898 → 1983067).
//
// The soft-max kernels' one-exponential form (numutil.SymExpSum) moves
// the gradients in their last ulps, which moves the descent's path:
// 128→143 now stops after more evaluations (596531 → 630471 charged,
// 22411 → 23711 measured) and 8→248 likewise (567682 → 572773, 21306 →
// 21501); 0→255 and 15→240 stop where they did.
func TestGridCorridorRounds(t *testing.T) {
	g, corridors := corridorGrid(16)
	r, err := NewRouter(g, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i, c := range []struct {
		rounds, measuredRounds int64
		escalations            int
	}{
		{630471, 23711, 0},
		{572773, 21501, 0},
		{192570, 6912, 0},
		{1983067, 75603, 1},
	} {
		s, tt := corridors[i][0], corridors[i][1]
		res, err := r.MaxFlow(s, tt)
		if err != nil {
			t.Fatalf("%d→%d: %v", s, tt, err)
		}
		if res.Rounds != c.rounds || res.MeasuredRounds != c.measuredRounds {
			t.Errorf("%d→%d: rounds %d (measured %d), want %d (%d)",
				s, tt, res.Rounds, res.MeasuredRounds, c.rounds, c.measuredRounds)
		}
		if res.Escalations != c.escalations {
			t.Errorf("%d→%d: %d escalations, want %d", s, tt, res.Escalations, c.escalations)
		}
		opt, _ := ExactMaxFlow(g, s, tt)
		if res.Value < float64(opt)/1.01 {
			t.Errorf("%d→%d: value %v below OPT %d / 1.01", s, tt, res.Value, opt)
		}
	}
}
