// Package core is the public façade of the reproduction: it wires every
// substrate into the paper's end-to-end workflow (Figure 1) —
//
//	corpus → SPDF containers → parallel parsing → semantic chunking →
//	embedding → MCQ generation + quality filtering (one teacher call per
//	chunk on the build's workers) → reasoning-trace distillation → vector
//	stores → evaluation setups for the synthetic benchmark and the Astro
//	exam.
//
// BuildBenchmark runs the generation pipeline; SyntheticSetup / AstroSetup
// produce eval.Setup bundles; Evaluate* regenerate the paper's tables.
package core

import (
	"context"
	"fmt"

	"repro/internal/argo"
	"repro/internal/astro"
	"repro/internal/chunk"
	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/eval"
	"repro/internal/llmsim"
	"repro/internal/mcq"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/rag"
	"repro/internal/rng"
	"repro/internal/spdf"
	"time"
)

// Config parameterises a benchmark-generation run.
type Config struct {
	// Seed drives every stochastic choice; equal seeds give bit-identical
	// benchmarks.
	Seed uint64
	// Scale multiplies the paper's corpus (14,115 papers + 8,433
	// abstracts). 1.0 is full scale; tests run ~0.002.
	Scale float64
	// FactsPerTopic sizes the knowledge base (default 40).
	FactsPerTopic int
	// QualityThreshold is the judge-score admission gate (paper: 7.0).
	QualityThreshold float64
	// Workers bounds parallelism (<=0 → GOMAXPROCS).
	Workers int
	// Gateway configures the teacher-call gateway of ragbench's stage
	// replay (benchmarks/ragbench), its only reader: BuildBenchmark calls
	// the teacher directly. It goes when the replay stops using argo.
	Gateway argo.Config
	// Metrics optionally receives per-stage instrumentation (counters for
	// documents/chunks/questions, latency histograms for parse and
	// generation). Nil disables collection.
	Metrics *metrics.Registry
}

// DefaultConfig returns the paper's settings at the given scale.
func DefaultConfig(scale float64) Config {
	return Config{Seed: 42, Scale: scale, FactsPerTopic: 40, QualityThreshold: 7.0}
}

// Stats aggregates the dataset statistics the paper reports in §2.
type Stats struct {
	Papers          int
	Abstracts       int
	ParsedOK        int
	ParseSalvaged   int
	ParseFailed     int
	Chunks          int
	Candidates      int
	Accepted        int
	AcceptanceRate  float64
	Traces          int
	EmbeddingDim    int
	ChunkStoreBytes int64
}

// Artifacts is everything a generation run produces.
type Artifacts struct {
	Config      Config
	KB          *corpus.KB
	Chunks      []chunk.Chunk
	Questions   []*mcq.Question // the filtered benchmark
	Traces      []*mcq.Trace
	ChunkStore  *rag.ChunkStore
	TraceStores map[mcq.ReasoningMode]*rag.TraceStore
	ParseReport *spdf.Report
	Stats       Stats
}

// BuildBenchmark runs the full generation pipeline. Every stage goes
// through the real substrate: documents are rendered to SPDF bytes and
// parsed back (with the fault-tolerant parser), chunks are semantically
// split and embedded, the in-process teacher is called once per chunk on
// the build's own workers, each call drawing from the chunk's own stream,
// the quality gate filters candidates exactly as the paper's 7/10
// threshold does, and each store is encoded straight into one FP16 block.
// The artifacts do not depend on cfg.Workers.
func BuildBenchmark(cfg Config) (*Artifacts, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("core: non-positive scale %v", cfg.Scale)
	}
	if cfg.FactsPerTopic <= 0 {
		cfg.FactsPerTopic = 40
	}
	if cfg.QualityThreshold <= 0 {
		cfg.QualityThreshold = 7.0
	}
	root := rng.New(cfg.Seed)
	kb := corpus.Build(cfg.Seed, cfg.FactsPerTopic)
	gen := corpus.NewGenerator(kb, cfg.Seed)
	spec := corpus.FullScale.Scaled(cfg.Scale)

	// Stage 1: corpus → SPDF containers.
	docs := gen.GenerateAll(spec)
	payloads := make([][]byte, len(docs))
	names := make([]string, len(docs))
	factsOf := make(map[string][]corpus.FactID, len(docs))
	for i, d := range docs {
		payloads[i] = spdf.Encode(d)
		names[i] = "corpus/" + d.ID + ".spdf"
		factsOf[d.ID] = d.Facts
	}

	// Stage 2: parallel fault-isolated parsing (AdaParse role).
	var parseStart time.Time
	if cfg.Metrics != nil {
		parseStart = time.Now()
	}
	results, report := spdf.ParseAll(payloads, names, cfg.Workers)
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("docs.total").Add(int64(len(payloads)))
		cfg.Metrics.Counter("docs.parsed_ok").Add(int64(report.OK))
		cfg.Metrics.Counter("docs.parse_failed").Add(int64(report.Failed))
		cfg.Metrics.Histogram("stage.parse").Observe(time.Since(parseStart))
	}

	// Stage 3: semantic chunking of parsed text.
	var cdocs []chunk.Doc
	pathOf := make(map[string]string, len(results))
	for _, res := range results {
		if res.Parsed == nil || res.Parsed.Text == "" {
			continue
		}
		cdocs = append(cdocs, chunk.Doc{ID: res.Parsed.Meta.DocID, Text: res.Parsed.Text})
		pathOf[res.Parsed.Meta.DocID] = res.Path
	}
	chunker := chunk.New(chunk.DefaultConfig(), nil)
	var chunkStart time.Time
	if cfg.Metrics != nil {
		chunkStart = time.Now()
	}
	chunks := chunker.SplitAll(cdocs, cfg.Workers)
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("chunks.total").Add(int64(len(chunks)))
		cfg.Metrics.Histogram("stage.chunk").Observe(time.Since(chunkStart))
	}

	// Stage 4: MCQ generation + judging, one teacher call per chunk on the
	// build's own workers. Each chunk draws from its own stream, so the
	// questions do not depend on the worker count or the call order.
	teacher := llmsim.NewTeacher(kb)
	candidates, err := pipeline.Map(context.Background(), indexes(len(chunks)), cfg.Workers,
		func(_ context.Context, i int) (*mcq.Question, error) {
			var callStart time.Time
			if cfg.Metrics != nil {
				callStart = time.Now()
			}
			ch := chunks[i]
			r := root.SplitN("mcq", i)
			q := teacher.GenerateMCQ(ch, factsOf[ch.DocID], pathOf[ch.DocID], r)
			q.Checks = teacher.JudgeQuality(q, r)
			if cfg.Metrics != nil {
				cfg.Metrics.Histogram("teacher.call").Observe(time.Since(callStart))
			}
			return q, nil
		})
	if err != nil {
		return nil, fmt.Errorf("core: generation: %w", err)
	}
	accepted := mcq.FilterByQuality(candidates, cfg.QualityThreshold)
	if cfg.Metrics != nil {
		cfg.Metrics.Counter("questions.candidates").Add(int64(len(candidates)))
		cfg.Metrics.Counter("questions.accepted").Add(int64(len(accepted)))
	}

	// Stage 5: reasoning-trace distillation (three modes per question).
	traceLists, err := pipeline.Map(context.Background(), accepted, cfg.Workers,
		func(_ context.Context, q *mcq.Question) ([]*mcq.Trace, error) {
			trs := teacher.GenerateTraces(q)
			for _, tr := range trs {
				if err := tr.Validate(q.AnswerText()); err != nil {
					return nil, err
				}
			}
			return trs, nil
		})
	if err != nil {
		return nil, fmt.Errorf("core: trace distillation: %w", err)
	}
	var traces []*mcq.Trace
	for _, ts := range traceLists {
		traces = append(traces, ts...)
	}

	// Stage 6: vector stores (chunk DB + three trace DBs).
	enc := embed.NewDefault()
	chunkStore := rag.BuildChunkStore(enc, chunks, cfg.Workers)
	traceStores := rag.TraceStores(enc, traces, nil, cfg.Workers)

	a := &Artifacts{
		Config:      cfg,
		KB:          kb,
		Chunks:      chunks,
		Questions:   accepted,
		Traces:      traces,
		ChunkStore:  chunkStore,
		TraceStores: traceStores,
		ParseReport: report,
		Stats: Stats{
			Papers:          spec.Papers,
			Abstracts:       spec.Abstracts,
			ParsedOK:        report.OK,
			ParseSalvaged:   report.Salvaged,
			ParseFailed:     report.Failed,
			Chunks:          len(chunks),
			Candidates:      len(candidates),
			Accepted:        len(accepted),
			Traces:          len(traces),
			EmbeddingDim:    enc.Dim(),
			ChunkStoreBytes: chunkStore.MemoryBytes(),
		},
	}
	if a.Stats.Candidates > 0 {
		a.Stats.AcceptanceRate = float64(a.Stats.Accepted) / float64(a.Stats.Candidates)
	}
	return a, nil
}

func indexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// SyntheticSetup bundles the generated benchmark for evaluation.
func (a *Artifacts) SyntheticSetup() *eval.Setup {
	s := a.retrievalSetup()
	s.Questions = a.Questions
	s.Bench = llmsim.BenchSynthetic
	s.Seed = a.Config.Seed
	return &s
}

// AstroSetup generates the expert exam and bundles it against the same
// retrieval stores (the paper evaluates Astro with retrieval from the
// corpus-derived chunk DB and the synthetic-question trace DBs).
func (a *Artifacts) AstroSetup() (*eval.Setup, *astro.Exam) {
	exam := astro.Generate(a.KB, a.Config.Seed)
	s := a.retrievalSetup()
	s.Questions = exam.Questions
	s.Bench = llmsim.BenchAstro
	s.Seed = a.Config.Seed + 1
	return &s, exam
}

// retrievalSetup is what every evaluation of the artifacts shares: the
// knowledge base, the stores behind their facades and the distilled
// questions' facts, which trace utility grades against.
func (a *Artifacts) retrievalSetup() eval.Setup {
	traces := make(map[mcq.ReasoningMode]rag.Facade, len(a.TraceStores))
	for mode, ts := range a.TraceStores {
		traces[mode] = rag.NewTraceFacade(ts)
	}
	return eval.Setup{
		KB:      a.KB,
		Chunks:  rag.NewChunkFacade(a.ChunkStore),
		Traces:  traces,
		Facts:   rag.QuestionFactMap(a.Questions),
		Workers: a.Config.Workers,
	}
}

// AstroNoMathSetup restricts an Astro setup to the classifier-selected
// non-mathematical subset (the paper's Table 4 setting).
func AstroNoMathSetup(full *eval.Setup, exam *astro.Exam) *eval.Setup {
	c := astro.NewClassifier()
	sub := *full
	sub.Questions = exam.NoMath(c)
	sub.Seed = full.Seed + 1
	return &sub
}

// EvaluateSynthetic runs the full Table 2 matrix.
func EvaluateSynthetic(a *Artifacts) (*eval.Matrix, error) {
	return eval.Run(a.SyntheticSetup(), llmsim.Profiles(), llmsim.AllConditions)
}

// EvaluateAstro runs Tables 3 and 4 (all questions and the no-math subset)
// including the GPT-4 comparator row.
func EvaluateAstro(a *Artifacts) (all, noMath *eval.Matrix, err error) {
	setup, exam := a.AstroSetup()
	profiles := append(llmsim.Profiles(), llmsim.GPT4Profile())
	all, err = eval.Run(setup, profiles, llmsim.AllConditions)
	if err != nil {
		return nil, nil, err
	}
	noMath, err = eval.Run(AstroNoMathSetup(setup, exam), profiles, llmsim.AllConditions)
	if err != nil {
		return nil, nil, err
	}
	return all, noMath, nil
}
