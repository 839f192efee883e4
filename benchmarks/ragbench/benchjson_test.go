package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// benchSpec is BENCHMARK.json, the contract the driver reads.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// BENCHMARK.json must list exactly the workloads this package runs and
// exactly the metrics it marks as contract metrics, with the same units,
// directions and bounds — it is a mirror of metricDefs, never a second
// source.
func TestBenchmarkJSONMirrorsTheMetricTable(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, ragbench's default window is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmarks" {
		t.Errorf("paths %v, want [benchmarks]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d is %q with a %d-character why, want %q and 1..200", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	var wantE2E, wantLayer []metricDef
	for _, d := range metricDefs {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("metric %+v breaks the naming rules", d)
		}
		switch {
		case d.Contract && d.Kind == kindE2E:
			wantE2E = append(wantE2E, d)
		case d.Contract:
			wantLayer = append(wantLayer, d)
		}
	}
	if len(spec.EndToEnd) != len(wantE2E) || len(spec.PerLayer) != len(wantLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, metricDefs marks %d and %d",
			len(spec.EndToEnd), len(spec.PerLayer), len(wantE2E), len(wantLayer))
	}
	sawSetup := false
	for i, m := range spec.EndToEnd {
		d := wantE2E[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, metricDefs has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		sawSetup = sawSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !sawSetup {
		t.Error("end_to_end lacks setup_s in seconds, lower is better")
	}
	for i, m := range spec.PerLayer {
		if d := wantLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, metricDefs has %+v", i, m, d)
		}
	}
}
