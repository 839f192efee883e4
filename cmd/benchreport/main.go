// Command benchreport regenerates the paper's tables and figures in one
// run and prints them as one Markdown report. Sections:
//
//	stats      dataset statistics of §2 (documents → chunks → questions)
//	models     Table 1 (model roster)
//	table2     synthetic benchmark + Figure 4
//	table3     Astro all questions + Figure 5 + GPT-4 crossover
//	table4     Astro no-math subset + Figure 6
//	ablation   retrieval-depth, self-exclusion and index ablations
//	           (HNSW vs Flat vs IVF-PQ)
//	extensions sub-domain breakdown and trace distillation (paper §5)
//
// The header carries no timestamp, so the sections without wall-clock
// figures (models, table2–4) diff cleanly across runs of one seed.
//
// Usage:
//
//	benchreport -scale 0.1 [-section all] [-out report.md]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/eval"
	"repro/internal/llmsim"
	"repro/internal/rag"
	"repro/internal/vecstore"
)

func main() {
	scale := flag.Float64("scale", 0.1, "fraction of the paper's corpus")
	seed := flag.Uint64("seed", 42, "experiment seed")
	section := flag.String("section", "all", strings.Join(sections, "|")+"|all")
	out := flag.String("out", "", "also write the report to a file")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}
	if err := run(w, *scale, *seed, *section); err != nil {
		log.Fatal(err)
	}
}

// sections is the closed list of -section values besides "all".
var sections = []string{"stats", "models", "table2", "table3", "table4", "ablation", "extensions"}

func run(w io.Writer, scale float64, seed uint64, section string) error {
	if section != "all" && !slices.Contains(sections, section) {
		return fmt.Errorf("unknown -section %q (want %s|all)", section, strings.Join(sections, "|"))
	}
	want := func(s string) bool { return section == "all" || section == s }

	fmt.Fprintf(w, "# Reproduction report (scale %.3f, seed %d)\n\n", scale, seed)

	if want("models") {
		fmt.Fprintln(w, "## Table 1: evaluated models")
		fmt.Fprintln(w)
		fmt.Fprintln(w, eval.RenderTable1(llmsim.Profiles()))
	}

	needBuild := want("stats") || want("table2") || want("table3") || want("table4") ||
		want("ablation") || want("extensions")
	if !needBuild {
		return nil
	}

	t0 := time.Now()
	cfg := core.DefaultConfig(scale)
	cfg.Seed = seed
	a, err := core.BuildBenchmark(cfg)
	if err != nil {
		return err
	}
	buildDur := time.Since(t0)

	if want("stats") {
		s := a.Stats
		fmt.Fprintf(w, `## Dataset statistics (paper §2)

| quantity | paper (full scale) | this run (scale %.3f) |
|---|---|---|
| full-text papers | 14,115 | %d |
| abstracts | 8,433 | %d |
| semantic chunks | 173,318 | %d |
| candidate questions | 173,318 | %d |
| benchmark questions (≥7/10) | 16,680 | %d |
| acceptance rate | ~9.6%% | %.1f%% |
| reasoning traces (3 modes) | 50,040 | %d |
| embedding store | 747 MB FP16 | %.1f MB FP16 (dim %d) |
| generation wall-clock | — | %s |

`,
			scale, s.Papers, s.Abstracts, s.Chunks, s.Candidates, s.Accepted,
			100*s.AcceptanceRate, s.Traces, float64(s.ChunkStoreBytes)/1e6,
			s.EmbeddingDim, buildDur.Round(time.Millisecond))
	}

	if want("table2") {
		m, err := core.EvaluateSynthetic(a)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "## Table 2: synthetic benchmark accuracy")
		fmt.Fprintln(w)
		fmt.Fprintln(w, eval.RenderRetrievalStats(a.SyntheticSetup()))
		fmt.Fprintln(w, eval.RenderTable2(m))
		fmt.Fprintln(w, "```")
		fmt.Fprintln(w, eval.RenderFigure(m, "Figure 4: % improvement of best RT retrieval (synthetic)"))
		fmt.Fprintln(w, "```")
	}

	if want("table3") || want("table4") {
		all, noMath, err := core.EvaluateAstro(a)
		if err != nil {
			return err
		}
		if want("table3") {
			fmt.Fprintln(w, "##", "Table 3: Astro exam (all questions)")
			fmt.Fprintln(w)
			fmt.Fprintln(w, eval.RenderAstroTable(all, ""))
			fmt.Fprintln(w, "```")
			fmt.Fprintln(w, eval.RenderFigure(all, "Figure 5: % improvement of best RT retrieval (Astro all)"))
			fmt.Fprintln(w, "```")
			crossover(w, all)
		}
		if want("table4") {
			fmt.Fprintln(w, "##", "Table 4: Astro exam (no-math subset)")
			fmt.Fprintln(w)
			fmt.Fprintln(w, eval.RenderAstroTable(noMath, ""))
			fmt.Fprintln(w, "```")
			fmt.Fprintln(w, eval.RenderFigure(noMath, "Figure 6: % improvement of best RT retrieval (Astro no-math)"))
			fmt.Fprintln(w, "```")
		}
	}

	if want("ablation") {
		if err := ablations(w, a); err != nil {
			return err
		}
	}
	if want("extensions") {
		if err := extensions(w, a); err != nil {
			return err
		}
	}
	return nil
}

// extensions exercises the paper's §5 future-work directions: sub-domain
// organisation of the benchmark and continual pretraining on reasoning
// traces (simulated; see internal/llmsim/distill.go).
func extensions(w io.Writer, a *core.Artifacts) error {
	fmt.Fprintln(w, "## Extensions (paper §5 future work)")
	fmt.Fprintln(w)

	// Sub-domain breakdown for one representative model.
	prof, err := llmsim.ProfileByName("SmolLM3-3B")
	if err != nil {
		return err
	}
	conds := []llmsim.Condition{llmsim.CondBaseline, llmsim.CondChunks, llmsim.CondRTFocused}
	m, err := eval.Run(a.SyntheticSetup(), []*llmsim.Profile{prof}, conds)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "### Benchmark organised by sub-domain")
	fmt.Fprintln(w)
	fmt.Fprintln(w, eval.RenderTopicBreakdown(m.Rows[0], conds, 10))

	// Trace distillation: measured coverage drives simulated continual
	// pretraining; distilled baselines are then re-evaluated.
	coverage := llmsim.TraceCoverage(a.KB, a.Traces, rag.QuestionFactMap(a.Questions))
	fmt.Fprintf(w, "### Continual pretraining on reasoning traces (simulated)\n\n")
	fmt.Fprintf(w, "Measured trace coverage of the knowledge base: %.2f\n\n", coverage)
	fmt.Fprintln(w, "| Model | baseline | distilled baseline (measured) | RT ceiling |")
	fmt.Fprintln(w, "|---|---|---|---|")
	distilled, reports := llmsim.DistillAll(llmsim.Profiles(), coverage)
	dm, err := eval.Run(a.SyntheticSetup(), distilled, []llmsim.Condition{llmsim.CondBaseline})
	if err != nil {
		return err
	}
	for i, rep := range reports {
		measured := dm.Rows[i].Cells[llmsim.CondBaseline].Accuracy
		fmt.Fprintf(w, "| %s | %.3f | %.3f | %.3f |\n",
			rep.Model, rep.BaselineBefore, measured, rep.BestRTReference)
	}
	fmt.Fprintln(w)
	return nil
}

func crossover(w io.Writer, m *eval.Matrix) {
	row := m.Row("GPT-4")
	if row == nil {
		return
	}
	base := row.Cells[llmsim.CondBaseline].Accuracy
	fmt.Fprintf(w, "\nGPT-4 Astro baseline %.3f; SLMs surpassing it with RT retrieval: ", base)
	n := 0
	for _, r := range m.Rows {
		if r.Model == "GPT-4" {
			continue
		}
		if best := r.Best(); best != nil && best.Accuracy > base {
			if n > 0 {
				fmt.Fprint(w, ", ")
			}
			fmt.Fprintf(w, "%s (%.3f)", r.Model, best.Accuracy)
			n++
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w)
}

// ablations sweeps the retrieval design choices: retrieval depth k, trace
// self-exclusion, and the index trade-off (HNSW against Flat and IVF-PQ).
func ablations(w io.Writer, a *core.Artifacts) error {
	fmt.Fprintln(w, "## Ablations")
	fmt.Fprintln(w)

	// Retrieval depth on one representative small model.
	prof, err := llmsim.ProfileByName("SmolLM3-3B")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "### Retrieval depth k (SmolLM3-3B, RT-focused)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| k | accuracy | mean utility |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, k := range []int{1, 3, 5, 10} {
		setup := a.SyntheticSetup()
		setup.K = k
		m, err := eval.Run(setup, []*llmsim.Profile{prof},
			[]llmsim.Condition{llmsim.CondBaseline, llmsim.CondRTFocused})
		if err != nil {
			return err
		}
		cell := m.Rows[0].Cells[llmsim.CondRTFocused]
		fmt.Fprintf(w, "| %d | %.3f | %.3f |\n", k, cell.Accuracy, cell.MeanUtility)
	}
	fmt.Fprintln(w)

	// Trace self-exclusion ablation (cross-question generalisation).
	fmt.Fprintln(w, "### Trace self-exclusion (SmolLM3-3B, RT-focused)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| protocol | accuracy | mean utility |")
	fmt.Fprintln(w, "|---|---|---|")
	for _, exclude := range []bool{false, true} {
		setup := a.SyntheticSetup()
		setup.SelfExcludeTraces = exclude
		m, err := eval.Run(setup, []*llmsim.Profile{prof},
			[]llmsim.Condition{llmsim.CondBaseline, llmsim.CondRTFocused})
		if err != nil {
			return err
		}
		cell := m.Rows[0].Cells[llmsim.CondRTFocused]
		label := "paper (own trace retrievable)"
		if exclude {
			label = "ablation (own trace excluded)"
		}
		fmt.Fprintf(w, "| %s | %.3f | %.3f |\n", label, cell.Accuracy, cell.MeanUtility)
	}
	fmt.Fprintln(w)

	// HNSW against the two poles it sits between.
	fmt.Fprintln(w, "### Index ablation: HNSW vs Flat vs IVF-PQ trade-off (chunk store)")
	fmt.Fprintln(w)
	if err := hnswTradeoffAblation(w, a); err != nil {
		return err
	}
	return nil
}

// hnswTradeoffAblation holds the modernised HNSW graph against the two
// poles it sits between — the exact Flat scan and the compressed IVF-PQ —
// on the same chunk embeddings: what each costs to build, what it holds
// per vector, what recall it returns, and what a single query costs.
func hnswTradeoffAblation(w io.Writer, a *core.Artifacts) error {
	encDefault := embed.NewDefault()
	vecs := make([][]float32, 0, len(a.Chunks))
	flat := vecstore.NewFlat(384)
	for _, c := range a.Chunks {
		v := encDefault.Encode(c.Text)
		vecs = append(vecs, v)
		flat.Add(v, c.ID)
	}
	queries := make([][]float32, 0, 50)
	for i, q := range a.Questions {
		if i >= 50 {
			break
		}
		queries = append(queries, encDefault.Encode(q.Question))
	}

	t0 := time.Now()
	hn := flat.ToHNSW(vecstore.HNSWConfig{Seed: 1})
	hnswBuild := time.Since(t0)
	t0 = time.Now()
	ipq := flat.ToIVFPQ(vecstore.IVFPQConfig{NList: 64, NProbe: 8, M: 48, Seed: 1, Residual: true})
	pqBuild := time.Since(t0)

	perQueryUS := func(ix vecstore.Index) float64 {
		start := time.Now()
		for _, q := range queries {
			ix.Search(q, 5)
		}
		return float64(time.Since(start).Microseconds()) / float64(len(queries))
	}
	rows := []struct {
		ix      vecstore.Index
		buildMS float64
		recall  float64
	}{
		{flat, 0, 1}, // the exact reference: no conversion cost, recall 1 by definition
		{hn, float64(hnswBuild.Microseconds()) / 1e3, hn.Recall(queries, 5)},
		{ipq, float64(pqBuild.Microseconds()) / 1e3, ipq.Recall(vecs, queries, 5)},
	}
	fmt.Fprintln(w, "| index | build ms | bytes/vec | recall@5 | µs/query |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, r := range rows {
		st := vecstore.StatsOf(r.ix)
		fmt.Fprintf(w, "| %s | %.1f | %.1f | %.3f | %.1f |\n",
			st.Kind, r.buildMS, st.BytesPerVector(), r.recall, perQueryUS(r.ix))
	}
	fmt.Fprintln(w)
	return nil
}
