package spdf

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/pipeline"
)

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

// String renders the report as a compact table.
func (r *Report) String() string {
	s := fmt.Sprintf("parsed %d files: %d ok, %d salvaged, %d failed",
		r.Total, r.OK, r.Salvaged, r.Failed)
	if len(r.ByClass) > 0 {
		classes := make([]string, 0, len(r.ByClass))
		for c := range r.ByClass {
			classes = append(classes, string(c))
		}
		sort.Strings(classes)
		for _, c := range classes {
			s += fmt.Sprintf("\n  %-20s %d", c, r.ByClass[ErrorClass(c)])
		}
	}
	return s
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

// ParseDir reads every *.spdf file under dir (sorted for determinism) and
// parses them in parallel.
func ParseDir(dir string, workers int) ([]ParseResult, *Report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.spdf"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	payloads := make([][]byte, len(paths))
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, fmt.Errorf("spdf: reading %s: %w", p, err)
		}
		payloads[i] = data
	}
	results, rep := ParseAll(payloads, paths, workers)
	return results, rep, nil
}

// MetadataJSON serialises parsed metadata to the JSON form the pipeline
// stores alongside extracted text (AdaParse's output contract).
func MetadataJSON(m Metadata) ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}
