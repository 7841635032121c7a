package distflow

// Benchmark harness: one benchmark per experiment table (E1..E10, see
// DESIGN.md §3 for the claim each reproduces) plus micro-benchmarks of
// the hot operations. The experiment benchmarks regenerate their table
// at Quick scale per iteration and surface the headline measurement via
// b.ReportMetric; `go run ./cmd/bench [-exp eN] [-quick]` prints the
// same tables (at full scale without -quick).

import (
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"distflow/internal/capprox"
	"distflow/internal/experiments"
	"distflow/internal/graph"
	"distflow/internal/numutil"
	"distflow/internal/seqflow"
	"distflow/internal/sherman"
	"distflow/internal/vtree"
)

// reportLastColumn reruns an experiment and reports the numeric value of
// the named column in the last row as the benchmark's custom metric.
func benchExperiment(b *testing.B, run func(experiments.Scale) (*experiments.Table, error), col, unit string) {
	b.Helper()
	var metric float64
	for i := 0; i < b.N; i++ {
		tab, err := run(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		idx := -1
		for j, c := range tab.Columns {
			if c == col {
				idx = j
			}
		}
		if idx < 0 {
			b.Fatalf("column %q missing", col)
		}
		last := tab.Rows[len(tab.Rows)-1]
		v, err := strconv.ParseFloat(last[idx], 64)
		if err != nil {
			b.Fatalf("cell %q: %v", last[idx], err)
		}
		metric = v
	}
	b.ReportMetric(metric, unit)
}

func BenchmarkE1_RoundsVsN(b *testing.B) {
	benchExperiment(b, experiments.E1RoundsVsN, "this-work", "rounds")
}

func BenchmarkE2_LSSTStretch(b *testing.B) {
	benchExperiment(b, experiments.E2LSSTStretch, "avg-stretch", "stretch")
}

func BenchmarkE3_Sparsifier(b *testing.B) {
	benchExperiment(b, experiments.E3Sparsifier, "cut-distortion", "distortion")
}

func BenchmarkE4_CongestionApprox(b *testing.B) {
	benchExperiment(b, experiments.E4CongestionApprox, "worst opt/|Rb|", "distortion")
}

func BenchmarkE5_ApproxQuality(b *testing.B) {
	benchExperiment(b, experiments.E5ApproxQuality, "OPT/value", "ratio")
}

func BenchmarkE6_TreeDecomposition(b *testing.B) {
	benchExperiment(b, experiments.E6TreeDecomposition, "components", "components")
}

func BenchmarkE7_GradientIterations(b *testing.B) {
	benchExperiment(b, experiments.E7GradientIterations, "iterations", "iterations")
}

func BenchmarkE8_ResidualRouting(b *testing.B) {
	benchExperiment(b, experiments.E8ResidualRouting, "route-rounds", "rounds")
}

func BenchmarkE9_ClusterSimulation(b *testing.B) {
	benchExperiment(b, experiments.E9ClusterSimulation, "charge/round", "rounds")
}

func BenchmarkE10_Spanner(b *testing.B) {
	benchExperiment(b, experiments.E10Spanner, "stretch", "stretch")
}

// --- micro-benchmarks of the hot paths ---

func benchGraph(n int) *graph.Graph {
	rng := rand.New(rand.NewSource(3))
	return graph.CapUniform(graph.GNP(n, 6.0/float64(n), rng), 16, rng)
}

func BenchmarkApproximatorBuild(b *testing.B) {
	g := benchGraph(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := capprox.Build(g, capprox.Config{Trees: 4}, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyR(b *testing.B) {
	g := benchGraph(512)
	apx, err := capprox.Build(g, capprox.Config{}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	demand := graph.STDemand(g.N(), 0, g.N()-1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		apx.ApplyR(demand)
	}
}

func BenchmarkGradientIteration(b *testing.B) {
	// One AlmostRoute call at fixed eps: the unit of Theorem 1.1's
	// eps^-3 term.
	g := benchGraph(128)
	apx, err := capprox.Build(g, capprox.Config{ExactCuts: true}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	demand := graph.STDemand(g.N(), 0, g.N()-1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sherman.AlmostRoute(g, apx, demand, 0.5, sherman.Config{}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDinicExact(b *testing.B) {
	g := benchGraph(512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seqflow.MaxFlow(g, 0, g.N()-1)
	}
}

func BenchmarkSubtreeSums(b *testing.B) {
	parent := make([]int, 1<<14)
	parent[0] = -1
	rng := rand.New(rand.NewSource(5))
	for v := 1; v < len(parent); v++ {
		parent[v] = rng.Intn(v)
	}
	t, err := vtree.New(0, parent, nil)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, t.N())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.SubtreeSums(x)
	}
}

func BenchmarkSoftMaxGrad(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	y := make([]float64, 4096)
	for i := range y {
		y[i] = rng.NormFloat64() * 20
	}
	grad := make([]float64, len(y))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		numutil.SoftMaxGrad(y, grad)
	}
}

// --- parallel solver core: sequential vs parallel on a ≥10k-edge graph ---

var parallelBench struct {
	sync.Once
	r     *Router
	pairs []STPair
}

// parallelBenchSetup builds one large router shared by the
// parallel-core benchmarks (construction is itself benchmarked
// separately; here we benchmark the serving path).
func parallelBenchSetup(b *testing.B) (*Router, []STPair) {
	b.Helper()
	if testing.Short() {
		b.Skip("large-graph benchmark skipped in short mode")
	}
	parallelBench.Do(func() {
		rng := rand.New(rand.NewSource(3))
		gg := graph.CapUniform(graph.GNP(2500, 8.0/2500, rng), 64, rng)
		G := NewGraph(gg.N())
		for _, e := range gg.Edges() {
			G.AddEdge(e.U, e.V, e.Cap)
		}
		r, err := NewRouter(G, Options{Epsilon: 0.5, Seed: 3})
		if err != nil {
			b.Fatal(err)
		}
		parallelBench.r = r
		for _, p := range [][2]int{{0, 2499}, {17, 1203}, {400, 2301}, {991, 1507}} {
			parallelBench.pairs = append(parallelBench.pairs, STPair{S: p[0], T: p[1]})
		}
	})
	if parallelBench.r == nil {
		b.Skip("router construction failed in an earlier benchmark")
	}
	return parallelBench.r, parallelBench.pairs
}

// BenchmarkMaxFlowSequential pins the solver core to one worker: the
// baseline the parallel speedup is measured against.
func BenchmarkMaxFlowSequential(b *testing.B) {
	r, pairs := parallelBenchSetup(b)
	defer SetParallelism(SetParallelism(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			if _, err := r.MaxFlow(p.S, p.T); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMaxFlowParallel runs the same queries through the batch API
// with the full worker pool. At GOMAXPROCS ≥ 4 this should beat
// BenchmarkMaxFlowSequential by ≥1.5× (compare ns/op, or run
// `go run ./cmd/bench -flow` for a self-contained comparison); results
// are bit-identical to the sequential path by construction.
func BenchmarkMaxFlowParallel(b *testing.B) {
	r, pairs := parallelBenchSetup(b)
	if runtime.GOMAXPROCS(0) < 2 {
		b.Logf("GOMAXPROCS=1: parallel path degenerates to sequential on this machine")
	}
	defer SetParallelism(SetParallelism(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.MaxFlowBatch(pairs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMaxFlowEndToEnd(b *testing.B) {
	g := NewGraph(64)
	rng := rand.New(rand.NewSource(9))
	for v := 1; v < 64; v++ {
		g.AddEdge(v, rng.Intn(v), 1+rng.Int63n(15))
	}
	for k := 0; k < 96; k++ {
		u, v := rng.Intn(64), rng.Intn(64)
		if u != v {
			g.AddEdge(u, v, 1+rng.Int63n(15))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MaxFlow(g, 0, 63, Options{Epsilon: 0.5, Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}
