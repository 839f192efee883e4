package main

import (
	"io"
	"strings"
	"testing"
)

// TestRunRejectsUnknownSection pins that a mistyped -section fails before
// any corpus build instead of printing a bare header and exiting 0.
func TestRunRejectsUnknownSection(t *testing.T) {
	for _, s := range []string{"bogus", "tabel2", ""} {
		if err := run(io.Discard, 0.005, 1, s); err == nil {
			t.Errorf("run(-section %q) = nil, want an error", s)
		}
	}
}

// TestRunHeaderHasNoTimestamp: the header names only scale and seed, so
// the sections without wall-clock figures diff cleanly across runs.
func TestRunHeaderHasNoTimestamp(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 0.005, 1, "models"); err != nil {
		t.Fatal(err)
	}
	const want = "# Reproduction report (scale 0.005, seed 1)\n"
	if !strings.HasPrefix(b.String(), want) {
		t.Fatalf("report starts %q, want %q", strings.SplitN(b.String(), "\n", 2)[0], want)
	}
}

// TestRunAblationSection drives the ablation path end to end at a small
// scale: the HNSW / Flat / IVF-PQ trade-off rows are present, and neither
// the retired IVF probe table nor the IVF-PQ encoding-variant table is.
func TestRunAblationSection(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 0.005, 1, "ablation"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"### Index ablation: HNSW vs Flat vs IVF-PQ trade-off",
		"| Flat(FP16) |",
		"| HNSW(",
		"\n| IVF-PQ(",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("ablation report lacks %q", want)
		}
	}
	for _, gone := range []string{"IVF recall vs probes", "OPQ", "encoding variant"} {
		if strings.Contains(out, gone) {
			t.Errorf("ablation report still has %q", gone)
		}
	}
}
