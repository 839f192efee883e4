// Package metrics provides the lightweight instrumentation the pipeline
// binaries report: counters, gauges, and latency histograms with
// fixed-boundary buckets, all safe for concurrent use and cheap enough for
// hot paths (atomic counters, lock-only-on-histogram).
//
// An HPC generation campaign lives or dies on this accounting — the
// paper's pipeline tracks per-stage throughput across worker ranks; here
// the same numbers come from a Registry that stages share.
package metrics

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n may be 0; negative n panics).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: negative Counter.Add")
	}
	c.v.Add(n)
}

// Inc increments by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable atomic value.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram accumulates duration observations into fixed buckets.
//
// A histogram can also track a dimensionless size distribution (batch
// sizes, result counts): NewSizeHistogram stores each observation as
// 1ns == 1 unit and marks the histogram so exports render plain integers
// instead of durations.
type Histogram struct {
	mu      sync.Mutex
	bounds  []time.Duration // ascending upper bounds; implicit +inf last
	counts  []int64
	sum     time.Duration
	total   int64
	maxSeen time.Duration
	sizes   bool // observations are dimensionless counts, not durations
}

// DefaultBounds covers microseconds to minutes, the range of pipeline item
// latencies (embedding a chunk to parsing a large document).
var DefaultBounds = []time.Duration{
	100 * time.Microsecond, time.Millisecond, 10 * time.Millisecond,
	100 * time.Millisecond, time.Second, 10 * time.Second, time.Minute,
}

// NewHistogram returns a histogram with the given ascending bucket bounds
// (nil selects DefaultBounds).
func NewHistogram(bounds []time.Duration) *Histogram {
	if bounds == nil {
		bounds = DefaultBounds
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram bounds not ascending")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

// DefaultSizeBounds covers the batch sizes a coalescing gateway sees
// (power-of-two buckets up to 256).
var DefaultSizeBounds = []int64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// NewSizeHistogram returns a histogram over dimensionless sizes with the
// given ascending integer bucket bounds (nil selects DefaultSizeBounds).
// Record observations with ObserveN.
func NewSizeHistogram(bounds []int64) *Histogram {
	if bounds == nil {
		bounds = DefaultSizeBounds
	}
	db := make([]time.Duration, len(bounds))
	for i, b := range bounds {
		db[i] = time.Duration(b)
	}
	h := NewHistogram(db)
	h.sizes = true
	return h
}

// ObserveN records one dimensionless size observation.
func (h *Histogram) ObserveN(n int64) { h.Observe(time.Duration(n)) }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.bounds), func(i int) bool { return d <= h.bounds[i] })
	h.counts[i]++
	h.sum += d
	h.total++
	if d > h.maxSeen {
		h.maxSeen = d
	}
}

// Snapshot is a consistent point-in-time view of a histogram.
type Snapshot struct {
	Total int64
	Mean  time.Duration
	Max   time.Duration
	// Buckets maps each bound (and +inf as 0) to its cumulative count.
	Counts []int64
	Bounds []time.Duration
	// Sizes marks a dimensionless size histogram (1ns == 1 unit).
	Sizes bool
}

// Snapshot returns the current state.
func (h *Histogram) Snapshot() Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Snapshot{Total: h.total, Max: h.maxSeen, Sizes: h.sizes}
	if h.total > 0 {
		s.Mean = h.sum / time.Duration(h.total)
	}
	s.Counts = append([]int64(nil), h.counts...)
	s.Bounds = append([]time.Duration(nil), h.bounds...)
	return s
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) based on
// bucket boundaries; the max observed value for the top bucket.
func (s Snapshot) Quantile(q float64) time.Duration {
	if s.Total == 0 {
		return 0
	}
	target := int64(q * float64(s.Total))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Max
		}
	}
	return s.Max
}

// Registry is a named collection of metrics shared by pipeline stages.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating on first use) the named duration histogram
// with default bounds. Panics if the name is already a size histogram —
// the two kinds render differently, so a silent mix-up would corrupt the
// export.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(nil)
		r.histograms[name] = h
	} else if h.sizes {
		panic(fmt.Sprintf("metrics: histogram %q already registered as a size histogram", name))
	}
	return h
}

// SizeHistogram returns (creating on first use) the named dimensionless
// size histogram with default bounds. Panics if the name is already a
// duration histogram (see Histogram).
func (r *Registry) SizeHistogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewSizeHistogram(nil)
		r.histograms[name] = h
	} else if !h.sizes {
		panic(fmt.Sprintf("metrics: histogram %q already registered as a duration histogram", name))
	}
	return h
}
