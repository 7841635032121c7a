// Command perfbench is distflow's end-to-end benchmark. It drives the
// library from outside through its public API on one of three workloads
// and prints every metric by name with its unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 120, "failed": 0, "metrics": {"setup_s": {"value": 0.24, "unit": "s"}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload gnp-cold --seed 1 --seconds 36 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload with spans recorded around every call into the program,
// replays the layers the API hides, and reports the per-layer metrics.
// README.md in this directory defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of untraced runs, reported on every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"query_p50_s", "s"},
	{"query_p90_s", "s"},
	{"queries_per_s", "1/s"},
	{"value_over_opt", "ratio"},
	{"rounds_per_query", "rounds"},
	{"update_p50_s", "s"},
	{"update_p90_s", "s"},
	{"serve_p50_s", "s"},
	{"serve_p90_s", "s"},
	{"serve_slo_share", "ratio"},
	{"success_share", "ratio"},
}

// perLayer lists the metrics of traced runs, reported on every workload
// (0 where the workload does not exercise the layer).
var perLayer = []metricDef{
	{"capprox.sample_s", "s"},
	{"capprox.race_s", "s"},
	{"capprox.cutcap_s", "s"},
	{"capprox.alpha_s", "s"},
	{"capprox.trees", "count"},
	{"capprox.alpha", "ratio"},
	{"capprox.dirty_trees_per_update", "count"},
	{"capprox.swept_trees_per_update", "count"},
	{"capprox.resampled_trees_per_update", "count"},
	{"capprox.rebuilds", "count"},
	{"router.fork_s", "s"},
	{"router.publish_s", "s"},
	{"router.overhead_s", "s"},
	{"router.warm_hit_share", "ratio"},
	{"server.coalesced_share", "ratio"},
	{"server.pairs_per_batch", "count"},
	{"loadgen.lag_p90_s", "s"},
	{"sherman.iterations_per_query", "count"},
	{"sherman.restarts_per_query", "count"},
	{"sherman.escalations_per_query", "count"},
	{"sherman.evals_per_query", "count"},
	{"sherman.outer_per_query", "count"},
	{"sherman.solve_s", "s"},
	{"sherman.eval_s", "s"},
	{"sherman.eval_other_s", "s"},
	{"sherman.st_build_s", "s"},
	{"sherman.route_residual_call_s", "s"},
	{"numutil.softmax_grad_call_s", "s"},
	{"graph.divergence_call_s", "s"},
	{"capprox.potential_rt_call_s", "s"},
	{"capprox.norm_rb_call_s", "s"},
	{"shard.bytes_per_query", "B"},
	{"shard.messages_per_query", "count"},
	{"shard.measured_rounds_per_query", "rounds"},
	{"shard.cut_edges", "count"},
	{"shard.bytes_per_eval", "B"},
	{"shard.engine_build_s", "s"},
	{"shard.softmax_grad_call_s", "s"},
	{"shard.residual_call_s", "s"},
	{"shard.potential_rt_call_s", "s"},
	{"shard.gradient_delta_call_s", "s"},
	{"shard.eval_over_flat", "ratio"},
	{"shard.split_cut_edges", "count"},
	{"shard.split_bytes_per_eval", "B"},
	{"shard.split_eval_call_s", "s"},
	{"go.alloc_bytes_per_query", "B"},
	{"go.gc_cycles_per_query", "count"},
	{"go.cpu_per_wall", "ratio"},
	{"traced.setup_s", "s"},
	{"traced.query_p50_s", "s"},
	{"traced.update_p50_s", "s"},
	{"traced.serve_p50_s", "s"},
}

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool   // smoke-test sizes, set only by the smoke test
	traceDir string // where the traced run writes its spans
}

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*session) error{
	"gnp-cold":   runGNPCold,
	"grid-churn": runGridChurn,
	"serve-zipf": runServeZipf,
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: gnp-cold, grid-churn or serve-zipf")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 36, "length of the measured phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/perfbench/traces", "directory for the traced run's spans")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run executes one invocation and prints its report as the last line.
func run(cfg config, stdout io.Writer) error {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(2)
	s := newSession(cfg)
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d NumCPU=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	start := time.Now()
	if err := drive(s); err != nil {
		return err
	}
	rep, err := s.report()
	if err != nil {
		return err
	}
	for _, line := range s.notes {
		fmt.Fprintln(stdout, line)
	}
	for _, line := range s.mismatch {
		fmt.Fprintln(stdout, "REPLAY MISMATCH:", line)
	}
	if cfg.trace {
		// The traced run's own end-to-end numbers: their distance from
		// the untraced runs' is the tracing overhead.
		for _, d := range endToEnd {
			fmt.Fprintf(stdout, "traced end-to-end %-20s %.6g %s\n", d.name, s.e2e[d.name], d.unit)
		}
	}
	if s.tr != nil {
		path, err := s.tr.write(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(stdout, "spans: %d written to %s\n", len(s.tr.spans), path)
	}
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(stdout, "wall: %.1fs, attempted %d, failed %d, correct %v\n", time.Since(start).Seconds(), rep.Attempted, rep.Failed, rep.Correct)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// report assembles the result line from the session's measurements:
// the end-to-end metrics, or in a traced run the per-layer ones.
func (s *session) report() (*report, error) {
	defs, vals := endToEnd, s.e2e
	if s.cfg.trace {
		defs, vals = perLayer, s.layer
		for _, name := range []string{"setup_s", "query_p50_s", "update_p50_s", "serve_p50_s"} {
			vals["traced."+name] = s.e2e[name]
		}
	}
	rep := &report{
		Correct:   s.failed == 0 && len(s.mismatch) == 0,
		Attempted: s.attempted,
		Failed:    s.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	return rep, nil
}
