package spdf

import "repro/internal/pipeline"

// ParseResult is the per-file outcome of a parallel parse run.
type ParseResult struct {
	Path   string
	Parsed *Parsed
	Err    error
}

// Report aggregates a parse run, mirroring the per-class failure accounting
// an HPC parsing campaign reports across ranks.
type Report struct {
	Total    int
	OK       int
	Salvaged int // errored but text recovered
	Failed   int // no usable text
	ByClass  map[ErrorClass]int
}

// ParseAll parses raw SPDF payloads in parallel with per-item error
// isolation: one corrupt document never aborts the batch. Results preserve
// input order. workers <= 0 selects GOMAXPROCS.
func ParseAll(payloads [][]byte, names []string, workers int) ([]ParseResult, *Report) {
	if len(names) != len(payloads) {
		panic("spdf: names/payloads length mismatch")
	}
	results := make([]ParseResult, len(payloads))
	pipeline.For(len(payloads), workers, func(i int) {
		p, err := Parse(payloads[i])
		results[i] = ParseResult{Path: names[i], Parsed: p, Err: err}
	})

	rep := &Report{Total: len(results), ByClass: map[ErrorClass]int{}}
	for _, res := range results {
		switch {
		case res.Err == nil:
			rep.OK++
		case res.Parsed != nil && res.Parsed.Text != "":
			rep.Salvaged++
		default:
			rep.Failed++
		}
		if pe, ok := res.Err.(*ParseError); ok {
			rep.ByClass[pe.Class]++
		}
	}
	return results, rep
}
