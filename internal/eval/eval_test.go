package eval_test

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llmsim"
	"repro/internal/mcq"
	"repro/internal/rag"
)

// Shared fixture: one small-scale pipeline run for all tests in the
// package (building it per test would dominate runtime).
var (
	fixtureOnce sync.Once
	fixture     *core.Artifacts
	fixtureErr  error
)

func artifacts(t testing.TB) *core.Artifacts {
	t.Helper()
	fixtureOnce.Do(func() {
		cfg := core.DefaultConfig(0.01)
		fixture, fixtureErr = core.BuildBenchmark(cfg)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

func TestRunProducesFullMatrix(t *testing.T) {
	a := artifacts(t)
	m, err := eval.Run(a.SyntheticSetup(), llmsim.Profiles(), llmsim.AllConditions)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Rows) != 8 {
		t.Fatalf("%d rows", len(m.Rows))
	}
	for _, row := range m.Rows {
		if len(row.Cells) != 5 {
			t.Fatalf("%s: %d cells", row.Model, len(row.Cells))
		}
		for cond, cell := range row.Cells {
			if cell.Total != len(a.Questions) {
				t.Fatalf("%s/%s: total %d", row.Model, cond, cell.Total)
			}
			if cell.Accuracy < 0 || cell.Accuracy > 1 {
				t.Fatalf("%s/%s: accuracy %v", row.Model, cond, cell.Accuracy)
			}
			if cell.CI.Lo > cell.Accuracy || cell.CI.Hi < cell.Accuracy {
				t.Fatalf("%s/%s: CI %v does not bracket %v", row.Model, cond, cell.CI, cell.Accuracy)
			}
			if cond != llmsim.CondBaseline && cell.MeanUtility <= 0 {
				t.Fatalf("%s/%s: zero mean utility with a live store", row.Model, cond)
			}
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a := artifacts(t)
	profiles := []*llmsim.Profile{mustProfile(t, "SmolLM3-3B")}
	m1, err := eval.Run(a.SyntheticSetup(), profiles, llmsim.AllConditions)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := eval.Run(a.SyntheticSetup(), profiles, llmsim.AllConditions)
	if err != nil {
		t.Fatal(err)
	}
	for _, cond := range llmsim.AllConditions {
		if m1.Rows[0].Cells[cond].Correct != m2.Rows[0].Cells[cond].Correct {
			t.Fatalf("%s not deterministic", cond)
		}
	}
}

// TestRunIndependentOfWorkers runs the full matrix on one worker and on
// four: the cells run in parallel, each on its own answer stream, so every
// cell must come out the same, mean utility bit for bit.
func TestRunIndependentOfWorkers(t *testing.T) {
	a := artifacts(t)
	run := func(workers int) *eval.Matrix {
		setup := a.SyntheticSetup()
		setup.Workers = workers
		m, err := eval.Run(setup, llmsim.Profiles(), llmsim.AllConditions)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	serial, parallel := run(1), run(4)
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("%d rows on one worker, %d on four", len(serial.Rows), len(parallel.Rows))
	}
	for i, row := range serial.Rows {
		prow := parallel.Rows[i]
		if row.Model != prow.Model || len(row.Cells) != len(prow.Cells) {
			t.Fatalf("row %d: %s with %d cells on one worker, %s with %d on four",
				i, row.Model, len(row.Cells), prow.Model, len(prow.Cells))
		}
		for cond, c := range row.Cells {
			p := prow.Cells[cond]
			if p == nil || c.Correct != p.Correct || c.Total != p.Total || c.Unparseable != p.Unparseable ||
				math.Float64bits(c.MeanUtility) != math.Float64bits(p.MeanUtility) {
				t.Fatalf("%s/%s: one worker %+v, four %+v", row.Model, cond, c, p)
			}
			if !reflect.DeepEqual(c.ByTopic, p.ByTopic) {
				t.Fatalf("%s/%s: per-topic tallies differ between one worker and four", row.Model, cond)
			}
		}
	}
}

// TestRunSurfacesPanickingCell runs a cell that panics (a profile with no
// Astro baseline row for math questions) beside one that does not: Run
// must return an error naming the failing cell, not crash or drop it.
func TestRunSurfacesPanickingCell(t *testing.T) {
	a := artifacts(t)
	q := *a.Questions[0]
	q.Math = true
	setup := a.SyntheticSetup()
	setup.Questions = []*mcq.Question{&q}
	setup.Bench = llmsim.BenchAstro
	broken := &llmsim.Profile{Name: "no-math-rows", AstroNoMath: llmsim.Targets{llmsim.CondBaseline: 0.5}}
	_, err := eval.Run(setup, []*llmsim.Profile{llmsim.GPT4Profile(), broken}, []llmsim.Condition{llmsim.CondBaseline})
	if err == nil || !strings.Contains(err.Error(), "no-math-rows/baseline") || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("err = %v, want the panicking cell named", err)
	}
}

func mustProfile(t testing.TB, name string) *llmsim.Profile {
	t.Helper()
	p, err := llmsim.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPaperShapeSynthetic(t *testing.T) {
	// The paper's headline findings must emerge from the measured run:
	// chunks > baseline and best-RT > chunks for every model (Table 2).
	a := artifacts(t)
	m, err := eval.Run(a.SyntheticSetup(), llmsim.Profiles(), llmsim.AllConditions)
	if err != nil {
		t.Fatal(err)
	}
	// Per-model ordering is checked with a sampling tolerance (the fixture
	// has ~175 questions; published gaps go down to 0.016, inside the
	// ±0.04 noise band), while the across-model means must order strictly.
	const tol = 0.04
	var mBase, mChunks, mBest float64
	for _, row := range m.Rows {
		base := row.Cells[llmsim.CondBaseline].Accuracy
		chunks := row.Cells[llmsim.CondChunks].Accuracy
		best := row.Best().Accuracy
		mBase += base
		mChunks += chunks
		mBest += best
		if chunks <= base-tol {
			t.Errorf("%s: chunks %.3f below baseline %.3f beyond tolerance", row.Model, chunks, base)
		}
		if best <= chunks-tol {
			t.Errorf("%s: best RT %.3f below chunks %.3f beyond tolerance", row.Model, best, chunks)
		}
	}
	n := float64(len(m.Rows))
	if !(mBest/n > mChunks/n && mChunks/n > mBase/n) {
		t.Errorf("mean ordering violated: RT %.3f / chunks %.3f / base %.3f",
			mBest/n, mChunks/n, mBase/n)
	}
}

func TestSmallModelsGainMost(t *testing.T) {
	// Paper §3.1.2: the largest relative RT gains occur in the smallest
	// models. TinyLlama's relative gain must exceed Llama-3.1's.
	a := artifacts(t)
	m, err := eval.Run(a.SyntheticSetup(), llmsim.Profiles(), llmsim.AllConditions)
	if err != nil {
		t.Fatal(err)
	}
	imps := eval.Improvements(m)
	byModel := map[string]eval.Improvement{}
	for _, im := range imps {
		byModel[im.Model] = im
	}
	tiny := byModel["TinyLlama-1.1B-Chat"].VsBaseline
	llama := byModel["Llama-3.1-8B-Instruct"].VsBaseline
	if tiny <= llama {
		t.Fatalf("TinyLlama gain %.1f%% not above Llama-3.1 %.1f%%", tiny, llama)
	}
	if tiny < 100 {
		t.Fatalf("TinyLlama relative gain %.1f%%, paper reports ~300%%", tiny)
	}
}

func TestSabotagedRetrievalCollapsesToBaseline(t *testing.T) {
	// DESIGN.md §4 invariant: with empty retrieval stores every RAG
	// condition must degenerate to baseline accuracy.
	a := artifacts(t)
	setup := a.SyntheticSetup()
	sabotaged := *setup
	sabotaged.Chunks = rag.NewChunkFacade(rag.BuildChunkStore(nil, nil, 0))
	sabotaged.Traces = map[mcq.ReasoningMode]rag.Facade{}
	for mode, ts := range rag.TraceStores(nil, nil, nil, 0) {
		sabotaged.Traces[mode] = rag.NewTraceFacade(ts)
	}
	profiles := []*llmsim.Profile{mustProfile(t, "SmolLM3-3B")}
	m, err := eval.Run(&sabotaged, profiles, llmsim.AllConditions)
	if err != nil {
		t.Fatal(err)
	}
	row := m.Rows[0]
	baseCell := row.Cells[llmsim.CondBaseline]
	for _, cond := range llmsim.AllConditions[1:] {
		cell := row.Cells[cond]
		if cell.MeanUtility != 0 {
			t.Fatalf("%s: sabotaged store yielded utility %v", cond, cell.MeanUtility)
		}
		// Each condition samples an independent RNG stream, so compare by
		// confidence-interval overlap rather than point equality. With a
		// live store SmolLM3's RT conditions sit ~0.35 above baseline —
		// far outside any CI overlap — so this cleanly detects collapse.
		if cell.CI.Lo > baseCell.CI.Hi || cell.CI.Hi < baseCell.CI.Lo {
			t.Fatalf("%s: accuracy %.3f (CI %.3f-%.3f) inconsistent with baseline %.3f with empty stores",
				cond, cell.Accuracy, cell.CI.Lo, cell.CI.Hi, baseCell.Accuracy)
		}
		// And nowhere near the model's published RAG accuracy.
		if cell.Accuracy > baseCell.Accuracy+0.15 {
			t.Fatalf("%s: sabotaged accuracy %.3f still shows RAG gain", cond, cell.Accuracy)
		}
	}
}

// TestRunRejectsMissingStore: a condition whose store the setup lacks is
// an error naming the store, never a nil dereference mid-run.
func TestRunRejectsMissingStore(t *testing.T) {
	a := artifacts(t)
	full := a.SyntheticSetup()
	for _, tc := range []struct {
		name string
		cond llmsim.Condition
		drop func(*eval.Setup)
		want string
	}{
		{"chunks", llmsim.CondChunks, func(s *eval.Setup) { s.Chunks = nil }, "eval: no chunk store"},
		{"traces", llmsim.CondRTFocused, func(s *eval.Setup) { s.Traces = nil }, "eval: no trace store for mode focused"},
		{"one trace mode", llmsim.CondRTDetail, func(s *eval.Setup) {
			s.Traces = map[mcq.ReasoningMode]rag.Facade{mcq.ModeFocused: full.Traces[mcq.ModeFocused]}
		}, "eval: no trace store for mode detailed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setup := *full
			tc.drop(&setup)
			_, err := eval.Run(&setup, []*llmsim.Profile{mustProfile(t, "SmolLM3-3B")},
				[]llmsim.Condition{llmsim.CondBaseline, tc.cond})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestGPT4BaselineOnlyRow(t *testing.T) {
	a := artifacts(t)
	setup, _ := a.AstroSetup()
	m, err := eval.Run(setup, []*llmsim.Profile{llmsim.GPT4Profile()}, llmsim.AllConditions)
	if err != nil {
		t.Fatal(err)
	}
	row := m.Rows[0]
	if len(row.Cells) != 1 {
		t.Fatalf("GPT-4 has %d cells, want baseline only", len(row.Cells))
	}
	if _, ok := row.Cells[llmsim.CondBaseline]; !ok {
		t.Fatal("GPT-4 lacks baseline cell")
	}
}

func TestRowBest(t *testing.T) {
	row := &eval.Row{Model: "m", Cells: map[llmsim.Condition]*eval.Cell{
		llmsim.CondRTDetail:    {Condition: llmsim.CondRTDetail, Accuracy: 0.7},
		llmsim.CondRTFocused:   {Condition: llmsim.CondRTFocused, Accuracy: 0.9},
		llmsim.CondRTEfficient: {Condition: llmsim.CondRTEfficient, Accuracy: 0.8},
	}}
	if b := row.Best(); b.Condition != llmsim.CondRTFocused {
		t.Fatalf("Best = %s", b.Condition)
	}
	empty := &eval.Row{Model: "m", Cells: map[llmsim.Condition]*eval.Cell{}}
	if empty.Best() != nil {
		t.Fatal("empty row Best not nil")
	}
}

func TestRunRejectsEmptyQuestions(t *testing.T) {
	a := artifacts(t)
	setup := *a.SyntheticSetup()
	setup.Questions = nil
	if _, err := eval.Run(&setup, llmsim.Profiles(), llmsim.AllConditions); err == nil {
		t.Fatal("empty setup accepted")
	}
}

func TestFilterQuestions(t *testing.T) {
	qs := []*mcq.Question{{ID: "a", Math: true}, {ID: "b"}, {ID: "c", Math: true}}
	got := eval.FilterQuestions(qs, func(q *mcq.Question) bool { return !q.Math })
	if len(got) != 1 || got[0].ID != "b" {
		t.Fatalf("filtered %v", got)
	}
}

func TestSortedConditions(t *testing.T) {
	in := []llmsim.Condition{llmsim.CondRTEfficient, llmsim.CondBaseline, llmsim.CondRTDetail}
	out := eval.SortedConditions(in)
	if out[0] != llmsim.CondBaseline || out[2] != llmsim.CondRTEfficient {
		t.Fatalf("order %v", out)
	}
	if in[0] != llmsim.CondRTEfficient {
		t.Fatal("input mutated")
	}
}

func TestRenderTable1(t *testing.T) {
	s := eval.RenderTable1(llmsim.Profiles())
	for _, want := range []string{"OLMo-7B", "128,000", "TinyLlama-1.1B-Chat", "| 14 B |"} {
		if !strings.Contains(s, want) {
			t.Fatalf("table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestRenderRetrievalStats(t *testing.T) {
	a := artifacts(t)
	s := a.SyntheticSetup()
	out := eval.RenderRetrievalStats(s)
	for _, want := range []string{"| chunks |", "Flat(FP16)", "Bytes/vec"} {
		if !strings.Contains(out, want) {
			t.Fatalf("retrieval stats missing %q:\n%s", want, out)
		}
	}
	for _, mode := range mcq.AllModes {
		if !strings.Contains(out, "traces/"+string(mode)) {
			t.Fatalf("retrieval stats missing trace store %q:\n%s", mode, out)
		}
	}
}

func TestRenderTable2AndFigures(t *testing.T) {
	a := artifacts(t)
	m, err := eval.Run(a.SyntheticSetup(),
		[]*llmsim.Profile{mustProfile(t, "OLMo-7B"), mustProfile(t, "SmolLM3-3B")},
		llmsim.AllConditions)
	if err != nil {
		t.Fatal(err)
	}
	tbl := eval.RenderTable2(m)
	if !strings.Contains(tbl, "RAG-RT-Focused") || !strings.Contains(tbl, "**") {
		t.Fatalf("table 2:\n%s", tbl)
	}
	fig := eval.RenderFigure(m, "Figure 4: synthetic improvement")
	if !strings.Contains(fig, "vs baseline") || !strings.Contains(fig, "vs chunks") {
		t.Fatalf("figure:\n%s", fig)
	}
	if !strings.Contains(fig, "█") {
		t.Fatalf("figure has no bars:\n%s", fig)
	}
	astroTbl := eval.RenderAstroTable(m, "Astro test")
	if !strings.Contains(astroTbl, "RAG–RTs (best)") {
		t.Fatalf("astro table:\n%s", astroTbl)
	}
	csv := eval.RenderCSV(m)
	if !strings.Contains(csv, "baseline") || len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Fatalf("csv:\n%s", csv)
	}
}

func TestNegativeImprovementRendered(t *testing.T) {
	// A model whose RT regresses (Llama-3-8B on Astro) must render a
	// "(worse)" bar, as the paper's Figure 5 shows negative bars.
	row := &eval.Row{Model: "m", Cells: map[llmsim.Condition]*eval.Cell{
		llmsim.CondBaseline:    {Condition: llmsim.CondBaseline, Accuracy: 0.665},
		llmsim.CondChunks:      {Condition: llmsim.CondChunks, Accuracy: 0.674},
		llmsim.CondRTFocused:   {Condition: llmsim.CondRTFocused, Accuracy: 0.542},
		llmsim.CondRTDetail:    {Condition: llmsim.CondRTDetail, Accuracy: 0.52},
		llmsim.CondRTEfficient: {Condition: llmsim.CondRTEfficient, Accuracy: 0.51},
	}}
	m := &eval.Matrix{Conditions: llmsim.AllConditions, Rows: []*eval.Row{row}}
	fig := eval.RenderFigure(m, "t")
	if !strings.Contains(fig, "(worse)") {
		t.Fatalf("negative bar not marked:\n%s", fig)
	}
	imps := eval.Improvements(m)
	if imps[0].VsBaseline >= 0 {
		t.Fatal("regression not negative")
	}
}

func TestUnparseableCounted(t *testing.T) {
	a := artifacts(t)
	m, err := eval.Run(a.SyntheticSetup(), []*llmsim.Profile{mustProfile(t, "OLMo-7B")},
		[]llmsim.Condition{llmsim.CondBaseline})
	if err != nil {
		t.Fatal(err)
	}
	// Student replies are well-formed, so nothing should be unparseable.
	if m.Rows[0].Cells[llmsim.CondBaseline].Unparseable != 0 {
		t.Fatal("well-formed replies flagged unparseable")
	}
}

var sinkMatrix *eval.Matrix

// BenchmarkEvaluateSynthetic times the full Table 2 matrix (8 models × 5
// conditions) over the shared scale-0.01 build: retrieval and prompt
// planning once per condition, then fit + answer + grade per cell.
func BenchmarkEvaluateSynthetic(b *testing.B) {
	a := artifacts(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := core.EvaluateSynthetic(a)
		if err != nil {
			b.Fatal(err)
		}
		sinkMatrix = m
	}
}
