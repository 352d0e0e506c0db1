package main

import (
	"encoding/json"
	"os"
	"testing"
)

// The harness and BENCHMARK.json must declare the same workloads and
// metrics with the same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok || whyOf[w.Name] != w.Why {
			t.Errorf("workload %q: missing from the harness or a different reason", w.Name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, units map[string]string) {
		if len(declared) != len(units) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness %d", kind, len(declared), len(units))
		}
		for _, m := range declared {
			if units[m.Name] != m.Unit {
				t.Errorf("%s metric %q: unit %q in BENCHMARK.json, %q in the harness", kind, m.Name, m.Unit, units[m.Name])
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndUnits)
	check("per_layer", b.PerLayer, layerUnits)
}
