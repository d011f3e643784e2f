package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// manifest is the part of BENCHMARK.json the benchmark must agree with.
type manifest struct {
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

func TestManifestMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	same := func(label string, got []metricDef, want []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark has %d metrics, BENCHMARK.json %d", label, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: benchmark %s/%s, BENCHMARK.json %s/%s",
					label, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, m.EndToEnd)
	same("per_layer", perLayer, m.PerLayer)
}

// once runs one round of a workload's stream, shortened to the given
// number of queries (0: the full stream).
func once(t *testing.T, w *workload, seed int64, trace bool, queries int) result {
	t.Helper()
	res, err := run(io.Discard, w, options{seed: seed, trace: trace, queries: queries, spans: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := once(t, w, 11, trace, 60)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, d.name)
					continue
				}
				if v.Unit != d.unit {
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.name, v.Unit, d.unit)
				}
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, d.name, v.Value)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.name, trace, len(res.Metrics), len(defs))
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d (error_rate must be 0)",
					w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
		}
	}
}

func TestStreamsRepeatExactly(t *testing.T) {
	for _, w := range workloads {
		a, b := w.stream(5, 300), w.stream(5, 300)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: the same seed gave different streams", w.name)
		}
		if slices.Equal(a, w.stream(6, 300)) {
			t.Errorf("%s: different seeds gave the same stream", w.name)
		}
		if len(a) != 300 {
			t.Errorf("%s: stream has %d queries, want 300", w.name, len(a))
		}
	}
}

// TestCountsRepeat checks that a single-client workload's counters and
// virtual-clock figures repeat exactly across runs with one seed, and its
// allocation count within a tight tolerance. It runs the full streams, so
// the memo evicts on rope_repeat.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every single-client stream four times")
	}
	exact := []string{"dcsm.records", "cim.hit_ratio", "cim.served_per_query", "cim.misses",
		"cim.entries", "cim.evictions", "cim.singleflight_shares", "memo.hit_ratio", "memo.stores",
		"memo.evictions", "memo.invalidations", "memo.flight_shares", "rewrite.plans_per_query",
		"domains.calls_per_query", "domains.answers_per_call"}
	for _, w := range workloads {
		if w.clients != 1 {
			continue
		}
		same := func(a, b result, names []string) {
			for _, name := range names {
				x, okA := a.Metrics[name]
				y, okB := b.Metrics[name]
				if !okA || !okB || x.Value != y.Value {
					t.Errorf("%s: %s %v then %v", w.name, name, x.Value, y.Value)
				}
			}
		}
		a, b := once(t, w, 7, true, 0), once(t, w, 7, true, 0)
		same(a, b, exact)
		if w == ropeRepeat && a.Metrics["memo.evictions"].Value == 0 {
			t.Errorf("%s: the full stream should overflow the memo", w.name)
		}
		a, b = once(t, w, 7, false, 0), once(t, w, 7, false, 0)
		same(a, b, []string{"sim_tall_mean_ms", "sim_tfirst_mean_ms"})
		x, y := a.Metrics["allocs_per_answer"].Value, b.Metrics["allocs_per_answer"].Value
		if math.Abs(x-y) > 0.02*math.Max(x, y) {
			t.Errorf("%s: allocs_per_answer %v then %v, more than 2%% apart", w.name, x, y)
		}
	}
}
