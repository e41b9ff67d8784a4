package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
	Workload []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// checkMetrics asserts the result carries exactly the listed metrics,
// each with its unit.
func checkMetrics(t *testing.T, res *result, want []metricSpec) {
	t.Helper()
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("metric %s not emitted", m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
		}
	}
	if len(res.Metrics) != len(want) {
		var names []string
		for n := range res.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("emitted %d metrics, BENCHMARK.json lists %d: %v", len(res.Metrics), len(want), names)
	}
}

// TestEveryMetricEmitted runs the cheapest workload untraced and traced
// and checks every metric BENCHMARK.json names is emitted with its unit,
// and that notes.json documents each of them.
func TestEveryMetricEmitted(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "../BENCHMARK.json", &bf)
	for _, w := range bf.Workload {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	var notes struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
	}
	readJSON(t, "notes.json", &notes)
	all := append(append([]metricSpec(nil), bf.EndToEnd...), bf.PerLayer...)
	for _, m := range all {
		if _, ok := notes.Metrics[m.Name]; !ok {
			t.Errorf("notes.json does not document %s", m.Name)
		}
	}
	if len(notes.Metrics) != len(all) {
		t.Errorf("notes.json documents %d metrics, BENCHMARK.json lists %d", len(notes.Metrics), len(all))
	}

	w, err := workloadByName("large-memory")
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{false, true} {
		res, err := run(w, 1, 0, traced, "reference", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Fatalf("traced=%v: correct=%v failed=%d attempted=%d", traced, res.Correct, res.Failed, res.Attempted)
		}
		if traced {
			checkMetrics(t, res, bf.PerLayer)
		} else {
			checkMetrics(t, res, bf.EndToEnd)
		}
	}
}

// TestGateRejectsTamperedReference runs a workload against a copy of its
// reference with one digest altered: the run must fail and count the
// group's experiments as failed.
func TestGateRejectsTamperedReference(t *testing.T) {
	w, err := workloadByName("large-memory")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := loadReference("reference", w)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := ref.forSeed(1)
	if err != nil {
		t.Fatal(err)
	}
	var group string
	for g := range dg {
		group = g
		break
	}
	dg[group] = "0000000000000000"
	dir := t.TempDir()
	if err := ref.write(dir); err != nil {
		t.Fatal(err)
	}
	res, err := run(w, 1, 0, false, dir, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("tampered digest for %s passed the gate: correct=%v failed=%d", group, res.Correct, res.Failed)
	}
	if res.Failed%w.n != 0 || res.Failed > res.Attempted {
		t.Errorf("failed=%d: want whole campaigns of %d experiments, at most attempted=%d", res.Failed, w.n, res.Attempted)
	}
}

func TestGate(t *testing.T) {
	ref := digests{"a": "1", "b": "2"}
	sizes := groupSizes{"a": 10, "b": 20}
	if failed, bad := gate(ref, digests{"a": "1", "b": "2"}, sizes); failed != 0 || len(bad) != 0 {
		t.Errorf("identical digests: failed=%d bad=%v", failed, bad)
	}
	if failed, bad := gate(ref, digests{"a": "1", "b": "3"}, sizes); failed != 20 || len(bad) != 1 || bad[0] != "b" {
		t.Errorf("one mismatch: failed=%d bad=%v", failed, bad)
	}
	if _, bad := gate(ref, digests{"a": "1"}, sizes); len(bad) != 1 || bad[0] != "b" {
		t.Errorf("missing group: bad=%v", bad)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}
