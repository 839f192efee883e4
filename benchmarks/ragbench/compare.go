package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdicts of one (workload, end-to-end metric) pair.
const (
	verdictOK         = "ok"
	verdictBreach     = "BREACH"
	verdictUnresolved = "unresolved"
	verdictMissing    = "missing"
)

// pairResult compares one end-to-end metric on one workload across two
// sets of runs.
type pairResult struct {
	Workload, Metric string
	Unit             string
	MedianA, MedianB float64
	Worse            float64 // share of A's median by which B is worse (negative = better)
	SpreadA, SpreadB float64 // quartile spread within each set
	Bound            float64
	RunsA, RunsB     int
	Verdict          string
}

// compareSets judges set b (the change) against set a (the parent): for
// every untraced (workload, end-to-end metric) pair, b's median may be
// worse than a's by at most the metric's bound. Where the runs of either
// set spread wider than the bound, the pair cannot be resolved and is
// reported as such instead of as unchanged. fail_ratio has no bound: any
// increase is a breach.
func compareSets(a, b *reportFile) []pairResult {
	type key struct{ workload, metric string }
	collect := func(rf *reportFile) (map[key][]float64, map[key]metricRecord) {
		vals, defs := make(map[key][]float64), make(map[key]metricRecord)
		for _, run := range rf.Runs {
			if run.Trace {
				continue
			}
			for name, m := range run.Metrics {
				if m.Kind != kindE2E {
					continue
				}
				k := key{run.Workload, name}
				vals[k] = append(vals[k], m.Value)
				defs[k] = m
			}
		}
		return vals, defs
	}
	va, defs := collect(a)
	vb, _ := collect(b)
	keys := make([]key, 0, len(va))
	for k := range va {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	var out []pairResult
	for _, k := range keys {
		d := defs[k]
		p := pairResult{Workload: k.workload, Metric: k.metric, Unit: d.Unit, Bound: d.Bound,
			RunsA: len(va[k]), RunsB: len(vb[k])}
		if len(vb[k]) == 0 {
			p.Verdict = verdictMissing
			out = append(out, p)
			continue
		}
		p.MedianA, p.MedianB = median(va[k]), median(vb[k])
		p.SpreadA, p.SpreadB = quartileSpread(va[k]), quartileSpread(vb[k])
		switch {
		case p.MedianA == 0:
			// Only fail_ratio is zero at a healthy commit.
			if p.MedianB > 0 {
				p.Worse = math.Inf(1)
			}
		case d.Better == "higher":
			p.Worse = (p.MedianA - p.MedianB) / p.MedianA
		default:
			p.Worse = (p.MedianB - p.MedianA) / p.MedianA
		}
		switch {
		case p.Bound == 0 && p.Worse > 0:
			p.Verdict = verdictBreach
		case p.Bound == 0:
			p.Verdict = verdictOK
		case math.Max(p.SpreadA, p.SpreadB) > p.Bound:
			p.Verdict = verdictUnresolved
		case p.Worse > p.Bound:
			p.Verdict = verdictBreach
		default:
			p.Verdict = verdictOK
		}
		out = append(out, p)
	}
	return out
}

// printComparison writes one row per pair and reports whether any pair
// breached its bound (or went missing from the second set).
func printComparison(w io.Writer, pairs []pairResult) (breached bool) {
	fmt.Fprintf(w, "%-14s %-20s %12s %12s %8s %8s %8s %7s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound", "verdict")
	for _, p := range pairs {
		bound := "none"
		if p.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", 100*p.Bound)
		}
		fmt.Fprintf(w, "%-14s %-20s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %7s  %s (n=%d/%d, %s)\n",
			p.Workload, p.Metric, p.MedianA, p.MedianB, 100*p.Worse, 100*p.SpreadA, 100*p.SpreadB,
			bound, p.Verdict, p.RunsA, p.RunsB, p.Unit)
		if p.Verdict == verdictBreach || p.Verdict == verdictMissing {
			breached = true
		}
	}
	return breached
}
