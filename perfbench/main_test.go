package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"distflow/internal/graph"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// smoke test checks against the code.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricTablesMatchBenchmarkJSON checks that BENCHMARK.json names
// exactly the workloads and metrics, with their units, that the code
// reports.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := workloadNames(); strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, want)
	}
	check := func(kind string, got []metricDef, listed []metricDef) {
		if len(got) != len(listed) {
			t.Errorf("%s: code reports %d metrics, BENCHMARK.json lists %d", kind, len(got), len(listed))
			return
		}
		for i := range got {
			if got[i] != listed[i] {
				t.Errorf("%s[%d]: code reports %v, BENCHMARK.json lists %v", kind, i, got[i], listed[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", endToEnd, e2e)
	check("per_layer", perLayer, layer)
}

// TestSmoke runs every workload at smoke-test sizes, untraced and
// traced, and checks that the result line carries every metric with its
// unit, that every answer passed its check and that every replay
// reproduced the router.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			// Two seconds let serve-zipf send some requests that miss
			// the pre-filled cache, which the traced run replays.
			cfg := config{workload: name, seed: 7, seconds: 2, trace: traced, tiny: true, traceDir: t.TempDir()}
			var out bytes.Buffer
			if err := run(cfg, &out); err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s trace=%v: last line is not the report: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, traced, rep.Correct, rep.Attempted, rep.Failed, out.String())
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", name, d.name, m.Value)
				}
			}
		}
	}
}

// workloadNames returns the workload names in sorted order.
func workloadNames() []string {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TestTrackedGNPMatchesLibrary pins the frozen GNP generator to the
// library generator the BENCH_*.json documents used.
func TestTrackedGNPMatchesLibrary(t *testing.T) {
	el := trackedGNP(400, gnpDegree, gnpMaxCap, gnpSeed)
	rng := newRand(gnpSeed)
	g := graph.CapUniform(graph.GNP(400, gnpDegree/400.0, rng), gnpMaxCap, rng)
	if g.M() != len(el.edges) {
		t.Fatalf("library graph has %d edges, frozen copy %d", g.M(), len(el.edges))
	}
	for i, e := range g.Edges() {
		if got := el.edges[i]; got.u != e.U || got.v != e.V || got.cap != e.Cap {
			t.Fatalf("edge %d: frozen copy %+v, library %+v", i, got, e)
		}
	}
}
