// Command mcqgen runs the full MCQA benchmark-generation pipeline (the
// paper's Figure 1 workflow): parse → chunk → generate+filter → distill
// traces → build vector stores, each stage a data-parallel map, printing
// per-stage metrics and the dataset statistics of §2.
//
// Usage:
//
//	mcqgen -scale 0.01 -seed 42 -out artifacts/
//
// Artifacts (questions.jsonl, traces.jsonl, chunks.vsf, manifest.json) land
// in -out, followed by the completion marker
// .checkpoints/generate-benchmark.done; a re-run with the same -out skips
// the build while the marker and all four artifacts exist.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

func main() {
	scale := flag.Float64("scale", 0.01, "fraction of the paper's corpus")
	seed := flag.Uint64("seed", 42, "experiment seed")
	out := flag.String("out", "artifacts", "artifact directory")
	threshold := flag.Float64("threshold", 7.0, "quality admission gate (paper: 7/10)")
	workers := flag.Int("workers", 0, "parallelism (0 = GOMAXPROCS)")
	flag.Parse()

	if err := run(*scale, *seed, *out, *threshold, *workers); err != nil {
		log.Fatal(err)
	}
}

// outputs are the artifacts a finished build leaves in -out.
var outputs = []string{"questions.jsonl", "traces.jsonl", "chunks.vsf", "manifest.json"}

// markerPath is the completion marker a finished build leaves in out.
func markerPath(out string) string {
	return filepath.Join(out, ".checkpoints", "generate-benchmark.done")
}

// built reports whether out holds a finished build: the completion marker
// and every output it vouches for exist.
func built(out string) bool {
	if _, err := os.Stat(markerPath(out)); err != nil {
		return false
	}
	for _, name := range outputs {
		if _, err := os.Stat(filepath.Join(out, name)); err != nil {
			return false
		}
	}
	return true
}

func run(scale float64, seed uint64, out string, threshold float64, workers int) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	if built(out) {
		fmt.Println("build checkpointed; artifacts already present in", out)
		return nil
	}

	registry := metrics.NewRegistry()
	cfg := core.DefaultConfig(scale)
	cfg.Seed = seed
	cfg.QualityThreshold = threshold
	cfg.Workers = workers
	cfg.Metrics = registry
	start := time.Now()
	a, err := core.BuildBenchmark(cfg)
	if err != nil {
		return fmt.Errorf("generate-benchmark: %w", err)
	}
	// Save the full artifact bundle (questions, traces, chunk texts +
	// index, manifest) — loadable by `evalrun -artifacts`.
	if err := a.Save(out); err != nil {
		return fmt.Errorf("generate-benchmark: %w", err)
	}
	marker := markerPath(out)
	if err := os.MkdirAll(filepath.Dir(marker), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(marker, []byte(time.Now().UTC().Format(time.RFC3339)+"\n"), 0o644); err != nil {
		return err
	}

	s := a.Stats
	fmt.Printf(`generate-benchmark built in %s
dataset statistics (paper §2 at scale %.4f):
  documents      %d papers + %d abstracts
  parsed         %d ok / %d salvaged / %d failed
  chunks         %d
  candidates     %d (one per chunk)
  benchmark      %d questions (%.1f%% acceptance at threshold %.1f)
  traces         %d (3 modes × questions)
  chunk store    %d vectors × dim %d, %.1f MB FP16
`,
		time.Since(start).Round(time.Millisecond),
		scale, s.Papers, s.Abstracts, s.ParsedOK, s.ParseSalvaged, s.ParseFailed,
		s.Chunks, s.Candidates, s.Accepted, 100*s.AcceptanceRate, threshold,
		s.Traces, s.Chunks, s.EmbeddingDim, float64(s.ChunkStoreBytes)/1e6)
	fmt.Println("\nstage instrumentation:")
	fmt.Println(registry.Report())
	return nil
}
