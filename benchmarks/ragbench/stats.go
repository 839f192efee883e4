package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear interpolation
// between closest ranks, so integer-microsecond inputs still yield a value
// with all its digits rather than one of a handful of repeated integers.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

func median(vals []float64) float64 { return quantile(sortedCopy(vals), 0.5) }

// tailQuantile picks the highest percentile that still has at least ten
// samples beyond it: p99 needs 1000 samples, p90 needs 100. With fewer than
// 100 samples no tail percentile is supported — the maximum of a handful of
// samples is one disturbed sample away from any value — and the median
// stands in.
func tailQuantile(n int) (q float64, label string) {
	switch {
	case n >= 1000:
		return 0.99, "p99"
	case n >= 100:
		return 0.9, "p90"
	}
	return 0.5, "p50"
}

// latencySummary is the per-op latency of one op class over a window.
type latencySummary struct {
	Samples   int     // ops attempted in the window, failed ones included
	Failed    int     // of those, how many failed
	P50MS     float64 // median
	TailMS    float64 // tailQuantile of the window
	TailLabel string
}

// summarizeLatency folds latencies (ns) of attempted ops into a summary.
// Failed ops have no latency of their own; they rank above every success,
// so each one pushes the percentiles of the rest upward.
func summarizeLatency(latNS []int64, failed []bool) latencySummary {
	n := len(latNS)
	s := latencySummary{Samples: n}
	if n == 0 {
		s.TailLabel = "p50"
		return s
	}
	ok := make([]float64, 0, n)
	for i, l := range latNS {
		if failed != nil && failed[i] {
			s.Failed++
			continue
		}
		ok = append(ok, float64(l)/1e6)
	}
	sort.Float64s(ok)
	q, label := tailQuantile(n)
	s.TailLabel = label
	s.P50MS = quantileOfAttempted(ok, n, 0.5)
	s.TailMS = quantileOfAttempted(ok, n, q)
	return s
}

// quantileOfAttempted is the q-quantile over n attempted ops of which only
// the sorted successes have a latency; the n-len(ok) failures rank above
// them. A rank that lands among the failures returns the slowest success.
func quantileOfAttempted(ok []float64, n int, q float64) float64 {
	if len(ok) == 0 {
		return 0
	}
	pos := q * float64(n-1)
	if pos >= float64(len(ok)-1) {
		return ok[len(ok)-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return ok[lo] + frac*(ok[lo+1]-ok[lo])
}

// quartileSpread is the distance between the first and third quartile of
// vals as a share of their median, with quartiles as Python's
// statistics.quantiles(values, n=4) computes them (exclusive method) — the
// figure the regression bounds are judged against.
func quartileSpread(vals []float64) float64 {
	n := len(vals)
	if n < 2 {
		return 0
	}
	s := sortedCopy(vals)
	at := func(i int) float64 { // i-th quartile cut, exclusive method
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + delta*(s[j]-s[j-1])
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return (at(3) - at(1)) / math.Abs(med)
}

func floatsOf(ns []int64, div float64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / div
	}
	return out
}

// sortedCopy returns vals sorted ascending without touching the input.
func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}
