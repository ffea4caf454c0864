package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

var workloadNames = []string{"hidden-read", "hidden-churn", "stegdb-oltp"}

// exactRun runs a small-scale workload for exactly its exact prefix,
// verifies it, and returns its exact metrics.
func exactRun(t *testing.T, s spec, seed int64) map[string]float64 {
	t.Helper()
	w := newWorkload(s, seed, 0)
	v, _, err := setUp(w, seed, nil)
	if err != nil {
		t.Fatalf("%s seed %d: set-up: %v", s.name, seed, err)
	}
	win := runWindow(w, v, 0, s.exactOps, nil)
	out := finish(w, v)
	if win.failed > 0 || out.lost > 0 || len(out.problems) > 0 {
		t.Fatalf("%s seed %d: %d failed ops (first %v), %d lost writes, problems %v",
			s.name, seed, win.failed, win.firstErr, out.lost, out.problems)
	}
	if win.ops != s.exactOps {
		t.Fatalf("%s seed %d: ran %d ops, want %d", s.name, seed, win.ops, s.exactOps)
	}
	return win.exact.exactMetrics(s.exactOps)
}

// TestDeterminism checks that two runs with one seed give identical exact
// metrics (within 0.1% where a background flusher runs), and that another
// seed reports the same metric set.
func TestDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			s, err := specFor(name, true)
			if err != nil {
				t.Fatal(err)
			}
			a := exactRun(t, s, 7)
			b := exactRun(t, s, 7)
			for _, d := range compareExact(s, a, b) {
				t.Errorf("same seed, different exact metric %s", d)
			}
			c := exactRun(t, s, 8)
			if ka, kc := sortedKeys(a), sortedKeys(c); !slices.Equal(ka, kc) {
				t.Errorf("seed 8 reports metrics %v, seed 7 %v", kc, ka)
			}
			if a["disk_ms_per_op"] <= 0 || a["space_amp"] <= 0 {
				t.Errorf("exact metrics not positive: %v", a)
			}
		})
	}
}

// TestReports runs both report kinds at small scale and checks that every
// declared metric is present and every run verifies clean.
func TestReports(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			s, err := specFor(name, true)
			if err != nil {
				t.Fatal(err)
			}
			r, err := measure(s, 3, 100*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			if r.failed != 0 || r.attempted < s.exactOps {
				t.Fatalf("end-to-end run: %d of %d failed\n%v", r.failed, r.attempted, r.text)
			}
			for _, d := range endToEnd {
				if r.metrics[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, r.metrics[d.name])
				}
			}
			tr, err := measureTraced(s, 3, 100*time.Millisecond, "")
			if err != nil {
				t.Fatal(err)
			}
			if tr.failed != 0 {
				t.Fatalf("traced run: %d failed\n%v", tr.failed, tr.text)
			}
			for _, d := range perLayer {
				if _, ok := tr.metrics[d.name]; !ok {
					t.Errorf("per-layer metric %s missing", d.name)
				}
			}
			if tr.metrics["trace.traced_ops_per_s"] <= 0 || tr.metrics["trace.slowdown"] <= 0 {
				t.Errorf("no tracing overhead reported: %v", tr.metrics)
			}
		})
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the reported metric names and
// units in step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		json []def
		code []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code %d", c.what, len(c.json), len(c.code))
			continue
		}
		for i, d := range c.code {
			if c.json[i].Name != d.name || c.json[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the code %s (%s)", c.what, i, c.json[i].Name, c.json[i].Unit, d.name, d.unit)
			}
		}
	}
}
