// Command bench prints the experiment tables: one table per reproduced
// claim of the paper (DESIGN.md §3 maps claims to experiments),
// regenerated on every run.
//
// Usage:
//
//	bench            # all experiments at full scale
//	bench -exp e4    # one experiment
//	bench -quick     # reduced sizes (the configuration CI runs)
//
// The -flow mode instead benchmarks the solver serving path (router
// construction, then sequential vs batched max-flow queries, a
// batch-determinism cross-check, and a warm-cache repeat pass) and can
// record the measurements as JSON (schema 2, versioned in flow.go):
//
//	bench -flow -n 2500 -queries 8 -json BENCH.json
//	bench -flow -workers 1          # pin the solver core to one worker
//	bench -flow -compare            # also run the plain-stepper baseline
//	                                # and record the iteration ratio
//	bench -flow -iter-ceiling 1900  # fail if the workload exceeds the
//	                                # gradient-iteration budget (CI)
//	bench -flow -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// The -build mode benchmarks the router construction path instead: one
// NewRouter call with its per-phase breakdown (tree sampling,
// sparsifier, cut capacities, α measurement), a serving fingerprint on
// the same query workload, and the capacity-update ladder — dirty-path
// update vs full per-tree re-sweep vs rebuild (schema 4, see build.go).
// The graph/query flags (-n, -deg, -cap, -seed, -queries, -eps,
// -workers, -json) are shared between -flow and -build:
//
//	bench -build -n 2500 -json BENCH_update.json
//	bench -build -build-ceiling 0.7   # fail when router_build_seconds
//	                                  # exceeds the budget (CI)
//	bench -build -update-ceiling 0.01 # fail when a single-edge dirty
//	                                  # update exceeds the budget (CI)
//
// The -churn mode benchmarks dynamic topology churn: batched
// edge/vertex inserts and deletes through Router.UpdateTopology against
// a full rebuild of the router on the final graph, plus the query drift
// between the two (schema 5, see churn.go). It shares the graph/query
// flags with -flow and -build:
//
//	bench -churn -n 2500 -json BENCH_churn.json
//	bench -churn -churn-ceiling 0.05  # fail when one topology batch
//	                                  # exceeds the budget (CI)
//
// The -serve mode benchmarks the concurrent serving front-end: a
// sustained closed-loop query load through distflow.Server (admission
// control + coalescing batch scheduler) with topology churn publishing
// epochs underneath, a chaos phase (deadline-bounded queries with
// cancellations, injected update failures, a recovered solver panic,
// an overload burst, and a goroutine-leak check), then the
// quiesced-vs-rebuilt query drift on the final graph (schema 8, see
// serve.go). It shares the graph/query flags with the other modes:
//
//	bench -serve -n 2500 -json BENCH_serve.json
//	bench -serve -serve-ceiling 2     # fail when the p99 query latency
//	                                  # exceeds the budget (CI)
//	bench -serve -serve-deadline 500ms -serve-deadline-ceiling 2
//	                                  # fail when the chaos p99 exceeds
//	                                  # 2 × the per-query deadline (CI)
//
// The -scale mode climbs the instance ladder n = 10⁴, 10⁵, 10⁶ and
// measures every pipeline phase — streamed generation, streamed load,
// router build — in wall time and memory (retained heap delta + peak,
// schema 7, see scale.go). It reuses -deg/-cap/-seed/-queries/-eps/
// -workers; -n is ignored (the ladder fixes the rungs):
//
//	bench -scale -scale-max-n 100000 -json BENCH_scale.json
//	bench -scale -scale-max-n 10000 -scale-mem-ceiling 1024
//	                                  # fail when peak heap exceeds the
//	                                  # budget in MB (CI smoke)
//
// The -shard mode measures the sharded execution engine
// (Options.Shards) on the ladder n = 10⁴, 10⁵: per rung it re-shards
// one router across P = 1, 2, 4, 8 via SetShards, verifies every sweep
// reproduces the unsharded value sum bit for bit, and records the
// measured supersteps, cross-shard messages, and payload bytes against
// the paper's Õ(√n + D) round reference (schema 9, see shard.go):
//
//	bench -shard -shard-max-n 10000 -queries 4 -json BENCH_shard.json
//
// The -flow mode additionally measures router-build parallelism (one
// build pinned to a single worker vs one at GOMAXPROCS workers);
// -parallel-floor gates the speedup on multicore CI runners:
//
//	bench -flow -n 2500 -parallel-floor 1.5 -json BENCH_parallel.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"distflow/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp   = flag.String("exp", "", "comma-separated experiment ids (e1..e10); empty = all")
		quick = flag.Bool("quick", false, "reduced instance sizes")

		flow          = flag.Bool("flow", false, "benchmark the solver serving path instead of the experiment tables")
		build         = flag.Bool("build", false, "benchmark the router construction path (per-phase breakdown + the dirty/full/rebuild update ladder)")
		churn         = flag.Bool("churn", false, "benchmark dynamic topology churn (batched UpdateTopology vs full rebuild)")
		serve         = flag.Bool("serve", false, "benchmark the concurrent serving front-end (sustained load + churn through distflow.Server)")
		scaleMode     = flag.Bool("scale", false, "benchmark the instance ladder n=10⁴..10⁶ (per-phase wall time + memory)")
		shardMode     = flag.Bool("shard", false, "benchmark the sharded execution engine: P=1,2,4,8 sweep with measured rounds/messages/bytes and bit-identity vs the unsharded baseline")
		shardMaxN     = flag.Int("shard-max-n", 100_000, "-shard: climb rungs up to this vertex count")
		scaleMaxN     = flag.Int("scale-max-n", 1_000_000, "-scale: climb rungs up to this vertex count")
		scaleMemCeil  = flag.Float64("scale-mem-ceiling", 0, "-scale: pin the soft memory limit to this many MB and fail when peak heap exceeds it (0 = off)")
		buildCeiling  = flag.Float64("build-ceiling", 0, "-build: fail when router_build_seconds exceeds this many seconds (0 = off)")
		updateCeiling = flag.Float64("update-ceiling", 0, "-build: fail when dirty_update_seconds (per single-edge edit) exceeds this many seconds (0 = off)")
		churnCeiling  = flag.Float64("churn-ceiling", 0, "-churn: fail when churn_update_seconds (per topology batch) exceeds this many seconds (0 = off)")
		serveCeiling  = flag.Float64("serve-ceiling", 0, "-serve: fail when serve_p99_seconds (query latency under load) exceeds this many seconds (0 = off)")
		serveDeadline = flag.Duration("serve-deadline", 750*time.Millisecond, "-serve: per-query deadline of the chaos phase (degraded answers past it)")
		serveDLCeil   = flag.Float64("serve-deadline-ceiling", 0, "-serve: fail when the chaos-phase p99 exceeds this multiple of -serve-deadline (0 = off)")
		flowN         = flag.Int("n", 2500, "-flow/-build: vertex count of the benchmark graph")
		flowDeg       = flag.Float64("deg", 8, "-flow/-build: expected average degree")
		flowCap       = flag.Int64("cap", 64, "-flow/-build: maximum edge capacity")
		flowSeed      = flag.Int64("seed", 3, "-flow/-build: graph/query PRNG seed")
		queries       = flag.Int("queries", 8, "-flow/-build: number of s-t queries")
		epsilon       = flag.Float64("eps", 0.5, "-flow/-build: approximation target")
		workers       = flag.Int("workers", 0, "-flow/-build: solver worker count (0 = GOMAXPROCS)")
		jsonOut       = flag.String("json", "", "-flow/-build: write measurements to this JSON file")
		compare       = flag.Bool("compare", false, "-flow: also run the plain-stepper baseline (no acceleration/continuation) and record the iteration ratio")
		iterCeiling   = flag.Int("iter-ceiling", 0, "-flow: fail when sequential gradient iterations exceed this budget (0 = off)")
		parallelFloor = flag.Float64("parallel-floor", 0, "-flow: fail when the workers=1 vs workers=GOMAXPROCS build speedup falls below this floor (0 = off; only meaningful on multicore)")
		cpuProfile    = flag.String("cpuprofile", "", "-flow: write a CPU profile to this file")
		memProfile    = flag.String("memprofile", "", "-flow: write a heap profile to this file")
	)
	flag.Parse()
	if *shardMode {
		return runShardBench(FlowBenchConfig{
			Degree:  *flowDeg,
			MaxCap:  *flowCap,
			Seed:    *flowSeed,
			Queries: *queries,
			Epsilon: *epsilon,
			Workers: *workers,
		}, *jsonOut, *shardMaxN)
	}
	if *scaleMode {
		return runScaleBench(FlowBenchConfig{
			Degree:  *flowDeg,
			MaxCap:  *flowCap,
			Seed:    *flowSeed,
			Queries: *queries,
			Epsilon: *epsilon,
			Workers: *workers,
		}, *jsonOut, *scaleMaxN, *scaleMemCeil)
	}
	if *serve {
		return runServeBench(FlowBenchConfig{
			N:       *flowN,
			Degree:  *flowDeg,
			MaxCap:  *flowCap,
			Seed:    *flowSeed,
			Queries: *queries,
			Epsilon: *epsilon,
			Workers: *workers,
		}, *jsonOut, *serveCeiling, *serveDeadline, *serveDLCeil)
	}
	if *churn {
		return runChurnBench(FlowBenchConfig{
			N:       *flowN,
			Degree:  *flowDeg,
			MaxCap:  *flowCap,
			Seed:    *flowSeed,
			Queries: *queries,
			Epsilon: *epsilon,
			Workers: *workers,
		}, *jsonOut, *churnCeiling)
	}
	if *build {
		return runBuildBench(FlowBenchConfig{
			N:       *flowN,
			Degree:  *flowDeg,
			MaxCap:  *flowCap,
			Seed:    *flowSeed,
			Queries: *queries,
			Epsilon: *epsilon,
			Workers: *workers,
		}, *jsonOut, *buildCeiling, *updateCeiling)
	}
	if *flow {
		return runFlowBench(FlowBenchConfig{
			N:       *flowN,
			Degree:  *flowDeg,
			MaxCap:  *flowCap,
			Seed:    *flowSeed,
			Queries: *queries,
			Epsilon: *epsilon,
			Workers: *workers,
		}, *jsonOut, FlowBenchFlags{
			Compare:       *compare,
			IterCeiling:   *iterCeiling,
			ParallelFloor: *parallelFloor,
			CPUProfile:    *cpuProfile,
			MemProfile:    *memProfile,
		})
	}
	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	want := map[string]bool{}
	if *exp != "" {
		for _, id := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}
	ran := 0
	for _, r := range experiments.All() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		start := time.Now()
		tab, err := r.Run(scale)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		tab.Fprint(os.Stdout)
		fmt.Printf("   (%s regenerated in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", *exp)
	}
	return nil
}
