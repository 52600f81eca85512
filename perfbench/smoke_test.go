package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchmarkNames reads the metric names BENCHMARK.json promises.
func benchmarkNames(t *testing.T, key string) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ms))
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestRunsReportWhatBenchmarkJSONPromises runs the serve workload briefly,
// untraced and traced (its server, clients and span collector are the
// benchmark's concurrent parts), and checks the verdict and that the metric
// names and units are exactly those BENCHMARK.json lists.
func TestRunsReportWhatBenchmarkJSONPromises(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the serve workload's state several times")
	}
	for _, c := range []struct {
		traced bool
		key    string
	}{{false, "end_to_end"}, {true, "per_layer"}} {
		b := &bench{workload: "serve", seed: 3, seconds: 0.5, traced: c.traced, root: t.TempDir()}
		out, err := measure(workloadNamed("serve"), b)
		if err != nil {
			t.Fatal(err)
		}
		r := out.result
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
			t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d notes=%v",
				c.traced, r.Correct, r.Attempted, r.Failed, out.notes)
		}
		want := benchmarkNames(t, c.key)
		if len(r.Metrics) != len(want) {
			t.Errorf("traced=%v: %d metrics, BENCHMARK.json lists %d", c.traced, len(r.Metrics), len(want))
		}
		for name, unit := range want {
			if m, ok := r.Metrics[name]; !ok || m.Unit != unit {
				t.Errorf("traced=%v: metric %s = %+v, want unit %s", c.traced, name, m, unit)
			}
		}
	}
}
