package main

import (
	"context"
	"encoding/json"
	"os"
	"testing"
)

// TestSmoke runs every workload at 1/20 size, untraced and traced, with all
// correctness checks on, so `go test ./...` notices when a layer's public
// surface moves under the benchmark. It asserts nothing about speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and builds small corpora")
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			name := w + "/untraced"
			if trace {
				name = w + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel() // nothing here asserts speed, so the runs may share the cores
				opt := options{workload: w, seed: 11, seconds: defaultSeconds, trace: trace, smoke: true, outDir: t.TempDir()}
				r, err := runWorkload(context.Background(), opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range r.Checks {
					if !c.OK {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				if !r.Correct || r.OpsFailed != 0 || r.OpsAttempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", r.Correct, r.OpsAttempted, r.OpsFailed)
				}
				checkContractLine(t, r)
				if trace {
					if _, err := os.Stat(r.TraceFile); err != nil {
						t.Errorf("span file: %v", err)
					}
				}
			})
		}
	}
}

// checkContractLine holds the run to the driver's output contract: every
// contract metric of its trace mode present with its unit, and no
// end-to-end metric zero.
func checkContractLine(t *testing.T, r *runReport) {
	t.Helper()
	line, err := r.contractLine()
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]struct {
			Value *float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(line), &out); err != nil {
		t.Fatalf("%v in %s", err, line)
	}
	if out.Correct == nil || out.Attempted == nil || out.Failed == nil {
		t.Fatalf("result line lacks a key: %s", line)
	}
	n := 0
	for _, d := range metricDefs {
		if !d.Contract || (d.Kind == kindLayer) != r.Trace {
			continue
		}
		n++
		m, ok := out.Metrics[d.Name]
		if !ok || m.Value == nil || m.Unit != d.Unit {
			t.Errorf("result line lacks %s in %s", d.Name, d.Unit)
			continue
		}
		if d.Kind == kindE2E && *m.Value <= 0 {
			t.Errorf("end-to-end metric %s is %v; it must never be zero", d.Name, *m.Value)
		}
	}
	if len(out.Metrics) != n {
		t.Errorf("result line has %d metrics, the contract lists %d for trace=%v", len(out.Metrics), n, r.Trace)
	}
}
