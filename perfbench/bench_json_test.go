package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the
// program in step: every metric it declares is one the program
// reports, with the same unit, and every workload is one it runs.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	declared := 0
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		declared++
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			t.Errorf("metric %s: BENCHMARK.json unit %q, program unit %q (known: %v)", m.Name, m.Unit, u, ok)
		}
	}
	if declared != len(units) {
		t.Errorf("BENCHMARK.json declares %d metrics, the program reports %d", declared, len(units))
	}
	for _, w := range spec.Workloads {
		if newWorkload(w.Name, newInputs(0), nil) == nil {
			t.Errorf("BENCHMARK.json workload %s is not one the program runs", w.Name)
		}
	}
}
