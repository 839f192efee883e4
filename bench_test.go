// Package repro's root bench harness regenerates every table and figure of
// the paper as a testing.B benchmark, reporting the headline quantities as
// custom metrics (accuracy ×1000, percent improvements). One bench per
// artifact:
//
//	BenchmarkPipelineStats       §2 dataset statistics (generation pipeline)
//	BenchmarkTable2Synthetic     Table 2
//	BenchmarkFigure4             Figure 4
//	BenchmarkTable3AstroAll      Table 3
//	BenchmarkFigure5             Figure 5
//	BenchmarkTable4AstroNoMath   Table 4
//	BenchmarkFigure6             Figure 6
//	BenchmarkGPT4Crossover       §1/§3 crossover claim
//	BenchmarkAblation*           design-choice sweeps (DESIGN.md §3)
//
// Scale is 0.01 of the paper's corpus by default so the full suite runs in
// seconds; cmd/benchreport regenerates the same artifacts at any scale.
package repro

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/astro"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/eval"
	"repro/internal/llmsim"
	"repro/internal/rag"
)

var (
	fixOnce sync.Once
	fixArt  *core.Artifacts
	fixErr  error
)

func artifacts(b *testing.B) *core.Artifacts {
	b.Helper()
	fixOnce.Do(func() {
		fixArt, fixErr = core.BuildBenchmark(core.DefaultConfig(0.01))
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fixArt
}

// BenchmarkPipelineStats regenerates the paper's §2 dataset statistics:
// documents → parsed → chunks → candidates → filtered questions → traces.
func BenchmarkPipelineStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := core.BuildBenchmark(core.DefaultConfig(0.002))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(a.Stats.Chunks), "chunks")
		b.ReportMetric(float64(a.Stats.Accepted), "questions")
		b.ReportMetric(100*a.Stats.AcceptanceRate, "accept_%")
	}
}

// BenchmarkTable2Synthetic regenerates Table 2: 8 models × 5 conditions on
// the synthetic benchmark.
func BenchmarkTable2Synthetic(b *testing.B) {
	a := artifacts(b)
	for i := 0; i < b.N; i++ {
		m, err := core.EvaluateSynthetic(a)
		if err != nil {
			b.Fatal(err)
		}
		tiny := m.Row("TinyLlama-1.1B-Chat")
		b.ReportMetric(1000*tiny.Cells[llmsim.CondBaseline].Accuracy, "tinyllama_base_x1000")
		b.ReportMetric(1000*tiny.Best().Accuracy, "tinyllama_rt_x1000")
	}
}

// BenchmarkFigure4 regenerates Figure 4: percent improvement of best
// reasoning-trace retrieval over baseline and over chunks, per model.
func BenchmarkFigure4(b *testing.B) {
	a := artifacts(b)
	for i := 0; i < b.N; i++ {
		m, err := core.EvaluateSynthetic(a)
		if err != nil {
			b.Fatal(err)
		}
		imps := eval.Improvements(m)
		var minVsChunks, sumVsBase float64
		minVsChunks = 1e9
		for _, im := range imps {
			sumVsBase += im.VsBaseline
			if im.VsChunks < minVsChunks {
				minVsChunks = im.VsChunks
			}
		}
		b.ReportMetric(sumVsBase/float64(len(imps)), "mean_gain_vs_base_%")
		b.ReportMetric(minVsChunks, "min_gain_vs_chunks_%")
	}
}

func astroMatrices(b *testing.B, a *core.Artifacts) (all, noMath *eval.Matrix) {
	b.Helper()
	all, noMath, err := core.EvaluateAstro(a)
	if err != nil {
		b.Fatal(err)
	}
	return all, noMath
}

// BenchmarkTable3AstroAll regenerates Table 3 (Astro, all 335 questions).
func BenchmarkTable3AstroAll(b *testing.B) {
	a := artifacts(b)
	for i := 0; i < b.N; i++ {
		all, _ := astroMatrices(b, a)
		olmo := all.Row("OLMo-7B")
		// The table's signature anomaly: chunk retrieval below baseline.
		b.ReportMetric(1000*olmo.Cells[llmsim.CondBaseline].Accuracy, "olmo_base_x1000")
		b.ReportMetric(1000*olmo.Cells[llmsim.CondChunks].Accuracy, "olmo_chunks_x1000")
	}
}

// BenchmarkFigure5 regenerates Figure 5 (Astro all, % improvements).
func BenchmarkFigure5(b *testing.B) {
	a := artifacts(b)
	for i := 0; i < b.N; i++ {
		all, _ := astroMatrices(b, a)
		imps := eval.Improvements(all)
		neg := 0
		for _, im := range imps {
			if im.VsChunks < 0 {
				neg++
			}
		}
		// The paper notes improvements over chunks are "smaller and
		// sometimes negative" on Astro.
		b.ReportMetric(float64(neg), "models_negative_vs_chunks")
	}
}

// BenchmarkTable4AstroNoMath regenerates Table 4 (no-math subset).
func BenchmarkTable4AstroNoMath(b *testing.B) {
	a := artifacts(b)
	for i := 0; i < b.N; i++ {
		_, noMath := astroMatrices(b, a)
		smol := noMath.Row("SmolLM3-3B")
		b.ReportMetric(1000*smol.Cells[llmsim.CondBaseline].Accuracy, "smollm3_base_x1000")
		b.ReportMetric(1000*smol.Best().Accuracy, "smollm3_rt_x1000")
	}
}

// BenchmarkFigure6 regenerates Figure 6 (no-math % improvements): all
// models positive over both baseline and chunks.
func BenchmarkFigure6(b *testing.B) {
	a := artifacts(b)
	for i := 0; i < b.N; i++ {
		_, noMath := astroMatrices(b, a)
		pos := 0
		imps := eval.Improvements(noMath)
		for _, im := range imps {
			if im.VsBaseline > 0 && im.VsChunks > 0 {
				pos++
			}
		}
		b.ReportMetric(float64(pos), "models_all_positive")
		b.ReportMetric(float64(len(imps)), "models_total")
	}
}

// BenchmarkGPT4Crossover measures the §1 claim: number of SLMs whose best
// reasoning-trace configuration beats the GPT-4 Astro baseline.
func BenchmarkGPT4Crossover(b *testing.B) {
	a := artifacts(b)
	for i := 0; i < b.N; i++ {
		all, _ := astroMatrices(b, a)
		gpt4 := all.Row("GPT-4").Cells[llmsim.CondBaseline].Accuracy
		surpass := 0
		for _, row := range all.Rows {
			if row.Model == "GPT-4" {
				continue
			}
			if best := row.Best(); best != nil && best.Accuracy > gpt4 {
				surpass++
			}
		}
		b.ReportMetric(float64(surpass), "slms_above_gpt4")
	}
}

// BenchmarkAblationRetrievalK sweeps retrieval depth, a design choice the
// paper fixes at one value; the bench shows the accuracy/utility plateau.
func BenchmarkAblationRetrievalK(b *testing.B) {
	a := artifacts(b)
	prof, err := llmsim.ProfileByName("SmolLM3-3B")
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{1, 5, 10} {
		b.Run(benchName("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				setup := a.SyntheticSetup()
				setup.K = k
				m, err := eval.Run(setup, []*llmsim.Profile{prof},
					[]llmsim.Condition{llmsim.CondBaseline, llmsim.CondRTFocused})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(1000*m.Rows[0].Cells[llmsim.CondRTFocused].Accuracy, "acc_x1000")
			}
		})
	}
}

// BenchmarkAblationSelfExclusion compares the paper's protocol (a question
// may retrieve its own trace) with strict cross-question retrieval.
func BenchmarkAblationSelfExclusion(b *testing.B) {
	a := artifacts(b)
	prof, err := llmsim.ProfileByName("SmolLM3-3B")
	if err != nil {
		b.Fatal(err)
	}
	for _, exclude := range []bool{false, true} {
		name := "paper_protocol"
		if exclude {
			name = "cross_question_only"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				setup := a.SyntheticSetup()
				setup.SelfExcludeTraces = exclude
				m, err := eval.Run(setup, []*llmsim.Profile{prof},
					[]llmsim.Condition{llmsim.CondBaseline, llmsim.CondRTFocused})
				if err != nil {
					b.Fatal(err)
				}
				cell := m.Rows[0].Cells[llmsim.CondRTFocused]
				b.ReportMetric(1000*cell.Accuracy, "acc_x1000")
				b.ReportMetric(1000*cell.MeanUtility, "utility_x1000")
			}
		})
	}
}

// BenchmarkAblationModeSpread measures the inter-mode accuracy spread the
// paper discusses in §3.1.3 ("modest variation" across detailed / focused /
// efficient).
func BenchmarkAblationModeSpread(b *testing.B) {
	a := artifacts(b)
	for i := 0; i < b.N; i++ {
		m, err := core.EvaluateSynthetic(a)
		if err != nil {
			b.Fatal(err)
		}
		var maxSpread float64
		for _, row := range m.Rows {
			lo, hi := 1.0, 0.0
			for _, cond := range []llmsim.Condition{llmsim.CondRTDetail, llmsim.CondRTFocused, llmsim.CondRTEfficient} {
				acc := row.Cells[cond].Accuracy
				if acc < lo {
					lo = acc
				}
				if acc > hi {
					hi = acc
				}
			}
			if s := hi - lo; s > maxSpread {
				maxSpread = s
			}
		}
		b.ReportMetric(1000*maxSpread, "max_mode_spread_x1000")
	}
}

// BenchmarkRetrievalFanout measures the evaluation harness's retrieval
// fan-out path: every benchmark question against the chunk store in one
// RetrieveBatch call, which runs through the vecstore multi-query scan
// kernel (each FP16 row group is scored against the whole question batch
// while it is in cache). Reports µs per query.
func BenchmarkRetrievalFanout(b *testing.B) {
	a := artifacts(b)
	store := rag.BuildChunkStore(newEncoder(), a.Chunks, 0)
	queries := make([]string, len(a.Questions))
	for i, q := range a.Questions {
		queries[i] = q.Question
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := store.RetrieveBatch(queries, 5)
		if len(out) != len(queries) {
			b.Fatal("fan-out result count mismatch")
		}
	}
	b.ReportMetric(
		float64(b.Elapsed().Microseconds())/float64(b.N)/float64(len(queries)),
		"µs/query")
}

// BenchmarkAblationIDFEmbedder contrasts retrieval quality (source-fact
// hit rate in the top-5) between the uniform hashing embedder and its
// IDF-weighted variant — the embedder-quality axis the paper fixes by
// choosing PubMedBERT.
func BenchmarkAblationIDFEmbedder(b *testing.B) {
	a := artifacts(b)
	texts := make([]string, len(a.Chunks))
	for i, c := range a.Chunks {
		texts[i] = c.Text
	}
	idf := embed.TrainIDF(texts)
	encoders := map[string]*embed.Encoder{
		"uniform": embed.NewDefault(),
		"idf":     embed.NewDefault().WithIDF(idf),
	}
	for name, enc := range encoders {
		b.Run(name, func(b *testing.B) {
			store := rag.BuildChunkStore(enc, a.Chunks, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				hits := 0
				n := len(a.Questions)
				if n > 300 {
					n = 300
				}
				for _, q := range a.Questions[:n] {
					f := a.KB.Fact(corpus.FactID(q.Prov.FactID))
					for _, rc := range store.Retrieve(q.Question, 5) {
						if f != nil && strings.Contains(rc.Text, f.Sentence()) {
							hits++
							break
						}
					}
				}
				b.ReportMetric(100*float64(hits)/float64(n), "fact_recall@5_%")
			}
		})
	}
}

// BenchmarkAblationMathSubset contrasts math vs no-math Astro accuracy for
// a small model, the effect behind the paper's two-setting split.
func BenchmarkAblationMathSubset(b *testing.B) {
	a := artifacts(b)
	prof, err := llmsim.ProfileByName("TinyLlama-1.1B-Chat")
	if err != nil {
		b.Fatal(err)
	}
	setup, exam := a.AstroSetup()
	classifier := astro.NewClassifier()
	mathOnly := *setup
	mathOnly.Questions = eval.FilterQuestions(exam.Questions, classifier.RequiresMath)
	noMath := core.AstroNoMathSetup(setup, exam)
	for i := 0; i < b.N; i++ {
		mm, err := eval.Run(&mathOnly, []*llmsim.Profile{prof}, []llmsim.Condition{llmsim.CondBaseline})
		if err != nil {
			b.Fatal(err)
		}
		nm, err := eval.Run(noMath, []*llmsim.Profile{prof}, []llmsim.Condition{llmsim.CondBaseline})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(1000*mm.Rows[0].Cells[llmsim.CondBaseline].Accuracy, "math_acc_x1000")
		b.ReportMetric(1000*nm.Rows[0].Cells[llmsim.CondBaseline].Accuracy, "nomath_acc_x1000")
	}
}

// BenchmarkExtensionDistillation runs the paper's §5 future-work
// hypothesis: simulated continual pretraining on the trace corpus, with
// transfer scaled by *measured* fact coverage. Reports the mean baseline
// lift across the roster.
func BenchmarkExtensionDistillation(b *testing.B) {
	a := artifacts(b)
	qf := map[string]string{}
	for _, q := range a.Questions {
		qf[q.ID] = q.Prov.FactID
	}
	coverage := llmsim.TraceCoverage(a.KB, a.Traces, qf)
	for i := 0; i < b.N; i++ {
		distilled, reports := llmsim.DistillAll(llmsim.Profiles(), coverage)
		m, err := eval.Run(a.SyntheticSetup(), distilled, []llmsim.Condition{llmsim.CondBaseline})
		if err != nil {
			b.Fatal(err)
		}
		var lift float64
		for j, rep := range reports {
			lift += m.Rows[j].Cells[llmsim.CondBaseline].Accuracy - rep.BaselineBefore
		}
		b.ReportMetric(100*coverage, "coverage_%")
		b.ReportMetric(1000*lift/float64(len(reports)), "mean_lift_x1000")
	}
}

// BenchmarkExtensionTopicBreakdown exercises the sub-domain organisation of
// the benchmark (paper §5), reporting the spread between the best and
// worst sub-domain accuracy for one model.
func BenchmarkExtensionTopicBreakdown(b *testing.B) {
	a := artifacts(b)
	prof, err := llmsim.ProfileByName("SmolLM3-3B")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		m, err := eval.Run(a.SyntheticSetup(), []*llmsim.Profile{prof},
			[]llmsim.Condition{llmsim.CondRTFocused})
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := 1.0, 0.0
		for _, tc := range m.Rows[0].Cells[llmsim.CondRTFocused].ByTopic {
			if tc.Total < 5 {
				continue
			}
			acc := tc.Accuracy()
			if acc < lo {
				lo = acc
			}
			if acc > hi {
				hi = acc
			}
		}
		b.ReportMetric(1000*(hi-lo), "topic_spread_x1000")
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func newEncoder() *embed.Encoder { return embed.NewDefault() }
