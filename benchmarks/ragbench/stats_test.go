package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := quantile(s, tc.q); !near(got, tc.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", s, tc.q, got, tc.want)
		}
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it.
func TestTailQuantileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		q     float64
		label string
	}{{3, 0.5, "p50"}, {99, 0.5, "p50"}, {100, 0.9, "p90"}, {999, 0.9, "p90"}, {1000, 0.99, "p99"}, {50000, 0.99, "p99"}} {
		q, label := tailQuantile(tc.n)
		if q != tc.q || label != tc.label {
			t.Errorf("tailQuantile(%d) = %v %s, want %v %s", tc.n, q, label, tc.q, tc.label)
		}
	}
}

// A failed op is not dropped: it keeps its place in the sample count and
// ranks above every success, so it pushes the percentiles up.
func TestFailedOpsCountAgainstPercentiles(t *testing.T) {
	lat := make([]int64, 1000)
	failed := make([]bool, 1000)
	for i := range lat {
		lat[i] = int64(i+1) * 1e6 // 1..1000 ms
	}
	clean := summarizeLatency(lat, failed)
	if clean.Samples != 1000 || clean.Failed != 0 || clean.TailLabel != "p99" {
		t.Fatalf("clean summary %+v", clean)
	}
	if !near(clean.P50MS, 500.5) || !near(clean.TailMS, 990.01) {
		t.Errorf("clean p50 %v tail %v, want 500.5 and 990.01", clean.P50MS, clean.TailMS)
	}
	// Fail the 100 fastest ops: the median of the attempted ops moves from
	// the 500th success to the 600th.
	for i := 0; i < 100; i++ {
		failed[i] = true
	}
	dirty := summarizeLatency(lat, failed)
	if dirty.Samples != 1000 || dirty.Failed != 100 {
		t.Fatalf("dirty summary %+v", dirty)
	}
	if !near(dirty.P50MS, 600.5) {
		t.Errorf("p50 with 100 failed ops = %v, want 600.5", dirty.P50MS)
	}
	if dirty.TailMS != 1000 {
		t.Errorf("tail with 100 failed ops = %v, want the slowest success (1000)", dirty.TailMS)
	}
	if s := summarizeLatency(nil, nil); s.Samples != 0 || s.P50MS != 0 {
		t.Errorf("empty summary %+v", s)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(v, n=4),
// which is what the regression bounds are judged with.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartileSpread(ten); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	if got := quartileSpread([]float64{10, 20, 40}); !near(got, 1.5) {
		t.Errorf("spread of 10,20,40 = %v, want 1.5", got)
	}
	if quartileSpread([]float64{3}) != 0 {
		t.Error("one value has no spread")
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "client", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "scatter", StartUS: 10, EndUS: 90},
		{ID: 3, Parent: 2, Name: "shard", StartUS: 20, EndUS: 60}, // two shards overlap:
		{ID: 4, Parent: 2, Name: "shard", StartUS: 40, EndUS: 80}, // they cover 20..80
	}
	got := make(map[string]selfTime)
	for _, s := range selfTimes(spans) {
		got[s.Name] = s
	}
	if got["client"].SelfUS != 20 || got["scatter"].SelfUS != 20 || got["shard"].SelfUS != 80 || got["shard"].Count != 2 {
		t.Errorf("self times %+v", got)
	}
}
