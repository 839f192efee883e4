package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value %d", c.Value())
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("value %d", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(42)
	g.Set(-7)
	if g.Value() != -7 {
		t.Fatalf("value %d", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, time.Second})
	h.Observe(100 * time.Microsecond) // bucket 0
	h.Observe(time.Millisecond)       // bucket 0 (<=)
	h.Observe(10 * time.Millisecond)  // bucket 1
	h.Observe(2 * time.Second)        // overflow bucket
	s := h.Snapshot()
	if s.Total != 4 {
		t.Fatalf("total %d", s.Total)
	}
	if s.Counts[0] != 2 || s.Counts[1] != 1 || s.Counts[2] != 1 {
		t.Fatalf("counts %v", s.Counts)
	}
	if s.Max != 2*time.Second {
		t.Fatalf("max %v", s.Max)
	}
}

func TestHistogramBoundsValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogram([]time.Duration{time.Second, time.Millisecond})
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond})
	for i := 0; i < 90; i++ {
		h.Observe(500 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(50 * time.Millisecond)
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q != time.Millisecond {
		t.Fatalf("p50 %v", q)
	}
	if q := s.Quantile(0.95); q != 100*time.Millisecond {
		t.Fatalf("p95 %v", q)
	}
	var empty Snapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty quantile nonzero")
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram(nil)
	h.Observe(10 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	if mean := h.Snapshot().Mean; mean != 20*time.Millisecond {
		t.Fatalf("mean %v", mean)
	}
}

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter identity")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge identity")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("histogram identity")
	}
	if r.Counter("a") == r.Counter("b") {
		t.Fatal("distinct names share counter")
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared").Inc()
				r.Histogram("lat").Observe(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.Counter("shared").Value() != 4000 {
		t.Fatalf("count %d", r.Counter("shared").Value())
	}
	if r.Histogram("lat").Snapshot().Total != 4000 {
		t.Fatal("histogram lost observations")
	}
}

func TestRegistryReport(t *testing.T) {
	r := NewRegistry()
	r.Counter("items.parsed").Add(10)
	r.Gauge("queue.depth").Set(3)
	r.Histogram("parse.latency").Observe(time.Millisecond)
	rep := r.Report()
	for _, want := range []string{"items.parsed", "queue.depth", "parse.latency", "count=1"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q:\n%s", want, rep)
		}
	}
	// Report and WriteTo share one formatting path: the histogram summary
	// body must be identical in both renderings.
	summary := r.Snapshot().Histograms["parse.latency"].summary()
	if !strings.Contains(rep, summary) || !strings.Contains(r.Render(), summary) {
		t.Fatalf("report and render disagree on the summary line %q:\n%s\n%s", summary, rep, r.Render())
	}
}

func TestQuantileEmptyHistogram(t *testing.T) {
	s := NewHistogram(nil).Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v", q, got)
		}
	}
}

func TestQuantileExtremes(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond, time.Second})
	h.Observe(500 * time.Microsecond) // first bucket
	h.Observe(100 * time.Millisecond) // second bucket
	h.Observe(2 * time.Second)        // overflow bucket
	s := h.Snapshot()
	// q=0 clamps to the first observation's bucket bound.
	if got := s.Quantile(0); got != time.Millisecond {
		t.Fatalf("Quantile(0) = %v", got)
	}
	// q=1 lands in the overflow bucket, whose bound is the observed max.
	if got := s.Quantile(1); got != 2*time.Second {
		t.Fatalf("Quantile(1) = %v", got)
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	h := NewHistogram([]time.Duration{time.Millisecond})
	h.Observe(10 * time.Microsecond)
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != time.Millisecond {
			t.Fatalf("Quantile(%v) = %v", q, got)
		}
	}
}

func TestSizeHistogram(t *testing.T) {
	h := NewSizeHistogram(nil)
	for _, n := range []int64{1, 1, 4, 9, 30} {
		h.ObserveN(n)
	}
	s := h.Snapshot()
	if !s.Sizes {
		t.Fatal("size flag lost in snapshot")
	}
	if s.Total != 5 || int64(s.Max) != 30 {
		t.Fatalf("snapshot %+v", s)
	}
	// Median of {1,1,4,9,30} falls in the le=1 bucket.
	if got := s.Quantile(0.5); int64(got) != 1 {
		t.Fatalf("p50 = %d", int64(got))
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	r.Gauge("depth").Set(7)
	r.Histogram("lat").Observe(2 * time.Millisecond)
	r.SizeHistogram("batch").ObserveN(4)
	s := r.Snapshot()
	if s.Counter("hits") != 3 || s.Gauge("depth") != 7 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.Histograms["lat"].Total != 1 || s.Histograms["batch"].Total != 1 {
		t.Fatal("histogram snapshots missing")
	}
	if !s.Histograms["batch"].Sizes || s.Histograms["lat"].Sizes {
		t.Fatal("size flag mixed up between histograms")
	}
	if s.Counter("absent") != 0 {
		t.Fatal("absent counter not zero")
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.requests").Add(10)
	r.Gauge("serve.index.len").Set(128)
	r.Histogram("serve.latency").Observe(5 * time.Millisecond)
	r.SizeHistogram("serve.batch.size").ObserveN(8)
	out := r.Render()
	for _, want := range []string{
		"counter serve.requests 10\n",
		"gauge serve.index.len 128\n",
		"histogram serve.latency count=1",
		"histogram serve.batch.size count=1 mean=8 p50=8 p95=8 p99=8 max=8\n",
		"histogram_bucket serve.batch.size le=8 1\n",
		"histogram_bucket serve.latency le=+inf 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in:\n%s", want, out)
		}
	}
	// Deterministic: two renders agree.
	if out != r.Render() {
		t.Fatal("render not deterministic")
	}
	// WriteTo agrees with Render and reports its length.
	var b strings.Builder
	n, err := r.WriteTo(&b)
	if err != nil || b.String() != out || n != int64(len(out)) {
		t.Fatalf("WriteTo n=%d err=%v", n, err)
	}
}

func TestSnapshotConcurrentWithWriters(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("hits").Inc()
				r.Gauge("depth").Set(9)
				r.Histogram("lat").Observe(time.Microsecond)
				r.SizeHistogram("batch").ObserveN(3)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		if snap.Counter("hits") < 0 {
			t.Fatal("negative counter")
		}
		var b strings.Builder
		if _, err := r.WriteTo(&b); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		_ = r.Report()
	}
	close(stop)
	wg.Wait()
}

func TestHistogramKindCollisionPanics(t *testing.T) {
	r := NewRegistry()
	r.SizeHistogram("batch")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duration lookup of a size histogram did not panic")
			}
		}()
		r.Histogram("batch")
	}()
	r.Histogram("lat")
	defer func() {
		if recover() == nil {
			t.Error("size lookup of a duration histogram did not panic")
		}
	}()
	r.SizeHistogram("lat")
}
