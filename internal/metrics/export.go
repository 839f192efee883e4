package metrics

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// RegistrySnapshot is a consistent point-in-time copy of every metric in a
// registry, keyed by name — the structured form behind the text export,
// and what tests and benchmark reporters read instead of parsing text.
type RegistrySnapshot struct {
	Counters   map[string]int64
	Gauges     map[string]int64
	Histograms map[string]Snapshot
}

// Counter returns the named counter's value (0 when absent).
func (s RegistrySnapshot) Counter(name string) int64 { return s.Counters[name] }

// Gauge returns the named gauge's value (0 when absent).
func (s RegistrySnapshot) Gauge(name string) int64 { return s.Gauges[name] }

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := RegistrySnapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]int64, len(r.gauges)),
		Histograms: make(map[string]Snapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		out.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		out.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		out.Histograms[name] = h.Snapshot()
	}
	return out
}

// WriteTo renders the registry in a line-oriented text exposition format,
// stable and deterministic (sorted by kind then name) so a /metrics
// endpoint can serve it directly:
//
//	counter <name> <value>
//	gauge <name> <value>
//	histogram <name> count=<n> mean=<v> p50=<v> p95=<v> p99=<v> max=<v>
//	histogram_bucket <name> le=<bound> <cumulative count>
//
// Duration histograms render values as Go durations ("1.5ms"); size
// histograms (NewSizeHistogram) as plain integers. The final bucket line
// uses le=+inf.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	snap := r.Snapshot()
	for _, name := range sortedKeys(snap.Counters) {
		fmt.Fprintf(&b, "counter %s %d\n", name, snap.Counters[name])
	}
	for _, name := range sortedKeys(snap.Gauges) {
		fmt.Fprintf(&b, "gauge %s %d\n", name, snap.Gauges[name])
	}
	for _, name := range sortedKeys(snap.Histograms) {
		writeHistogram(&b, name, snap.Histograms[name])
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Render returns WriteTo's output as a string.
func (r *Registry) Render() string {
	var b strings.Builder
	r.WriteTo(&b) //nolint:errcheck // Builder writes cannot fail
	return b.String()
}

// Report renders a human-oriented aligned summary of all metrics, sorted
// by kind then name. It is built from the same Snapshot and histogram
// summary line as WriteTo/Render — one formatting path, so the two text
// exports cannot drift — differing only in layout (aligned columns, no
// per-bucket lines).
func (r *Registry) Report() string {
	snap := r.Snapshot()
	var lines []string
	for _, name := range sortedKeys(snap.Counters) {
		lines = append(lines, fmt.Sprintf("counter   %-32s %d", name, snap.Counters[name]))
	}
	for _, name := range sortedKeys(snap.Gauges) {
		lines = append(lines, fmt.Sprintf("gauge     %-32s %d", name, snap.Gauges[name]))
	}
	for _, name := range sortedKeys(snap.Histograms) {
		lines = append(lines, fmt.Sprintf("histogram %-32s %s", name, snap.Histograms[name].summary()))
	}
	return strings.Join(lines, "\n")
}

// summary renders a histogram's one-line count/mean/quantile body — the
// shared formatting core behind both WriteTo and Report.
func (s Snapshot) summary() string {
	val := func(d time.Duration) string {
		if s.Sizes {
			return fmt.Sprintf("%d", int64(d))
		}
		return d.String()
	}
	return fmt.Sprintf("count=%d mean=%s p50=%s p95=%s p99=%s max=%s",
		s.Total, val(s.Mean),
		val(s.Quantile(0.50)), val(s.Quantile(0.95)), val(s.Quantile(0.99)), val(s.Max))
}

func writeHistogram(b *strings.Builder, name string, s Snapshot) {
	fmt.Fprintf(b, "histogram %s %s\n", name, s.summary())
	val := func(d time.Duration) string {
		if s.Sizes {
			return fmt.Sprintf("%d", int64(d))
		}
		return d.String()
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		bound := "+inf"
		if i < len(s.Bounds) {
			bound = val(s.Bounds[i])
		}
		fmt.Fprintf(b, "histogram_bucket %s le=%s %d\n", name, bound, cum)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
