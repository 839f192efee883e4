// Package stats provides the small statistical toolkit the evaluation
// harness uses: summary moments, sorted-sample quantiles, Wilson binomial
// confidence intervals, and bootstrap resampling for accuracy deltas.
package stats

import (
	"cmp"
	"math"
	"sort"

	"repro/internal/rng"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (q in [0,1]) of an ascending-sorted
// slice without interpolation: sorted[int(q*(n-1))], the sample at or
// just below rank q·(n−1). An empty slice yields the zero value.
func Quantile[T cmp.Ordered](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// Interval is a two-sided confidence interval.
type Interval struct {
	Lo, Hi float64
}

// WilsonCI returns the 95% Wilson score interval for k successes of n
// trials — the standard interval for benchmark accuracies (well-behaved at
// extreme proportions, unlike the normal approximation).
func WilsonCI(k, n int) Interval {
	if n == 0 {
		return Interval{}
	}
	const z = 1.959963984540054
	p := float64(k) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	return Interval{Lo: clamp01(center - half), Hi: clamp01(center + half)}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// BootstrapMeanCI returns a percentile bootstrap 95% CI for the mean of xs
// using the given number of resamples and a deterministic seed.
func BootstrapMeanCI(xs []float64, resamples int, seed uint64) Interval {
	if len(xs) == 0 || resamples <= 0 {
		return Interval{}
	}
	r := rng.New(seed)
	means := make([]float64, resamples)
	for b := 0; b < resamples; b++ {
		var s float64
		for i := 0; i < len(xs); i++ {
			s += xs[r.Intn(len(xs))]
		}
		means[b] = s / float64(len(xs))
	}
	sort.Float64s(means)
	lo := means[int(0.025*float64(resamples))]
	hi := means[int(math.Min(0.975*float64(resamples), float64(resamples-1)))]
	return Interval{Lo: lo, Hi: hi}
}

// PairedBootstrapDelta bootstraps the mean difference a-b over paired
// observations (same questions under two conditions), returning the 95% CI
// of the delta. Panics if lengths differ.
func PairedBootstrapDelta(a, b []float64, resamples int, seed uint64) Interval {
	if len(a) != len(b) {
		panic("stats: paired inputs of different length")
	}
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	return BootstrapMeanCI(diffs, resamples, seed)
}

// Histogram bins xs into n equal-width buckets over [lo, hi].
func Histogram(xs []float64, lo, hi float64, n int) []int {
	counts := make([]int, n)
	if n == 0 || hi <= lo {
		return counts
	}
	w := (hi - lo) / float64(n)
	for _, x := range xs {
		b := int((x - lo) / w)
		if b < 0 {
			b = 0
		}
		if b >= n {
			b = n - 1
		}
		counts[b]++
	}
	return counts
}

// RelImprovement returns the relative improvement of b over a in percent
// ((b-a)/a × 100), the quantity plotted in the paper's Figures 4-6.
// A zero base returns 0 to avoid spurious infinities in reports.
func RelImprovement(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}
