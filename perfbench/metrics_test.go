package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkJSON is the repository's BENCHMARK.json, which names the
// command, the workloads and every metric this program reports.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program %d", len(names), len(workloads))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		s := endToEnd[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound != s.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, program %+v", i, m, s)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		s := perLayer[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, program %+v", i, m, s)
		}
	}
}

func TestMetricSpecs(t *testing.T) {
	seen := map[string]bool{}
	for _, list := range [][]spec{endToEnd, perLayer} {
		for _, s := range list {
			if seen[s.name] {
				t.Errorf("metric %s defined twice", s.name)
			}
			seen[s.name] = true
			if s.better != "lower" && s.better != "higher" {
				t.Errorf("metric %s: better %q", s.name, s.better)
			}
		}
	}
	for _, s := range endToEnd {
		if s.bound <= 0 || s.bound > 0.25 {
			t.Errorf("end-to-end %s: bound %g outside (0, 0.25]", s.name, s.bound)
		}
	}
	for _, s := range perLayer {
		if s.moves == "" || s.on == "" {
			t.Errorf("per-layer %s does not say which end-to-end metric it moves, on which workload", s.name)
		}
	}
}
