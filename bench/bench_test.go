package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload once, traced, on one-second windows (the
// sim campaign: three specs per box) and checks that each metric
// BENCHMARK.json names is produced, finite and carries the unit the file
// states — so the harness and the file cannot drift apart unnoticed.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(bf.PerLayer), len(perLayer))
	}
	for _, w := range bf.Workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			var res *result
			var err error
			if w.Name == "sim_campaign" {
				res, err = runSim(simOpts{seed: 1, window: time.Second, traced: true, outDir: t.TempDir(), setups: 1, limit: 3})
			} else {
				for _, sp := range serveSpecs {
					if sp.name == w.Name {
						res, err = runServe(sp, serveOpts{
							seed: 1, boots: 2, warmup: 200 * time.Millisecond, window: time.Second,
							traced: true, quick: true, outDir: t.TempDir(),
						})
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if res == nil {
				t.Fatalf("no workload %q in the harness", w.Name)
			}
			if res.failed != 0 {
				t.Errorf("%d of %d ops failed: %v", res.failed, res.attempted, res.failures)
			}
			check := func(set metricSet, name, unit string) {
				m, ok := set[name]
				switch {
				case !ok:
					t.Errorf("%s not reported", name)
				case m.Unit != unit:
					t.Errorf("%s has unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s = %v", name, m.Value)
				}
			}
			for _, e := range bf.EndToEnd {
				check(res.endToEnd, e.Name, e.Unit)
				if res.endToEnd[e.Name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", e.Name, res.endToEnd[e.Name].Value)
				}
			}
			for _, e := range bf.PerLayer {
				check(res.layers, e.Name, e.Unit)
			}
		})
	}
}
