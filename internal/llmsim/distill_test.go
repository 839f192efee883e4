package llmsim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/corpus"
	"repro/internal/mcq"
)

func TestTraceCoverage(t *testing.T) {
	kb := corpus.Build(42, 5) // small KB
	facts := kb.AllFacts()
	qf := map[string]string{
		"q1": string(facts[0].ID),
		"q2": string(facts[1].ID),
		"q3": string(facts[0].ID), // duplicate fact
	}
	traces := []*mcq.Trace{
		{ID: "t1", QuestionID: "q1", Mode: mcq.ModeFocused},
		{ID: "t2", QuestionID: "q2", Mode: mcq.ModeFocused},
		{ID: "t3", QuestionID: "q3", Mode: mcq.ModeFocused},
		{ID: "t4", QuestionID: "q-unknown", Mode: mcq.ModeFocused},
	}
	got := TraceCoverage(kb, traces, qf)
	want := 2.0 / float64(kb.NumFacts())
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("coverage %v, want %v", got, want)
	}
	if TraceCoverage(kb, nil, nil) != 0 {
		t.Fatal("empty corpus coverage nonzero")
	}
}

func TestDistillMovesBaselineTowardRT(t *testing.T) {
	p, _ := ProfileByName("TinyLlama-1.1B-Chat")
	d := DistillOnTraces(p, 0.9)
	before := p.Synthetic[CondBaseline]
	after := d.Synthetic[CondBaseline]
	if after <= before {
		t.Fatalf("distillation did not raise baseline: %v -> %v", before, after)
	}
	// Never exceeds the best RT row.
	best := 0.0
	for cond, v := range p.Synthetic {
		if cond != CondBaseline && v > best {
			best = v
		}
	}
	if after >= best {
		t.Fatalf("distilled baseline %v exceeds RT ceiling %v", after, best)
	}
	// RAG rows unchanged.
	for _, cond := range []Condition{CondChunks, CondRTDetail, CondRTFocused, CondRTEfficient} {
		if d.Synthetic[cond] != p.Synthetic[cond] {
			t.Fatalf("%s row changed by distillation", cond)
		}
	}
	if !strings.Contains(d.Name, "trace-distilled") {
		t.Fatalf("name %q", d.Name)
	}
}

func TestDistillZeroCoverageNoChange(t *testing.T) {
	p, _ := ProfileByName("SmolLM3-3B")
	d := DistillOnTraces(p, 0)
	if d.Synthetic[CondBaseline] != p.Synthetic[CondBaseline] {
		t.Fatal("zero coverage changed the baseline")
	}
}

func TestDistillOriginalUntouched(t *testing.T) {
	p, _ := ProfileByName("SmolLM3-3B")
	before := p.Synthetic[CondBaseline]
	_ = DistillOnTraces(p, 1)
	if p.Synthetic[CondBaseline] != before {
		t.Fatal("DistillOnTraces mutated the input profile")
	}
}

func TestDistillCapacityOrdering(t *testing.T) {
	// At equal coverage, a larger model absorbs a larger share of its own
	// headroom.
	tiny, _ := ProfileByName("TinyLlama-1.1B-Chat")
	qwen, _ := ProfileByName("Qwen-1.5-14B-Chat")
	share := func(p *Profile) float64 {
		d := DistillOnTraces(p, 0.8)
		best := 0.0
		for cond, v := range p.Synthetic {
			if cond != CondBaseline && v > best {
				best = v
			}
		}
		return (d.Synthetic[CondBaseline] - p.Synthetic[CondBaseline]) /
			(best - p.Synthetic[CondBaseline])
	}
	if share(qwen) <= share(tiny) {
		t.Fatalf("capacity ordering violated: qwen %.3f vs tiny %.3f", share(qwen), share(tiny))
	}
}

func TestDistillCoverageClamped(t *testing.T) {
	p, _ := ProfileByName("SmolLM3-3B")
	over := DistillOnTraces(p, 5)
	at1 := DistillOnTraces(p, 1)
	if over.Synthetic[CondBaseline] != at1.Synthetic[CondBaseline] {
		t.Fatal("coverage not clamped to 1")
	}
	neg := DistillOnTraces(p, -3)
	if neg.Synthetic[CondBaseline] != p.Synthetic[CondBaseline] {
		t.Fatal("negative coverage not clamped to 0")
	}
}

func TestDistillAllReports(t *testing.T) {
	profiles := Profiles()
	distilled, reports := DistillAll(profiles, 0.7)
	if len(distilled) != len(profiles) || len(reports) != len(profiles) {
		t.Fatal("length mismatch")
	}
	for i, rep := range reports {
		if rep.BaselineAfter <= rep.BaselineBefore {
			t.Fatalf("%s: no gain reported", rep.Model)
		}
		if rep.BaselineAfter >= rep.BestRTReference {
			t.Fatalf("%s: gain exceeds RT ceiling", rep.Model)
		}
		if rep.Model != profiles[i].Name {
			t.Fatalf("report %d names %q, want %q", i, rep.Model, profiles[i].Name)
		}
	}
}

func TestDistilledProfileStillEvaluates(t *testing.T) {
	p, _ := ProfileByName("OLMo-7B")
	d := DistillOnTraces(p, 0.8)
	s := NewStudent(d)
	q := mkQuestion("q-dist", false)
	probBefore := NewStudent(p).AnswerProb(q, BenchSynthetic, CondBaseline, 0, 0)
	probAfter := s.AnswerProb(q, BenchSynthetic, CondBaseline, 0, 0)
	if probAfter <= probBefore {
		t.Fatalf("distilled answer prob %v not above original %v", probAfter, probBefore)
	}
}

func TestGPT4ProfileDistillNoSyntheticRow(t *testing.T) {
	// GPT-4 has no synthetic targets; distillation must not panic and must
	// leave the empty row empty.
	d := DistillOnTraces(GPT4Profile(), 0.9)
	if len(d.Synthetic) != 0 {
		t.Fatal("empty row grew")
	}
	if d.AstroAll[CondBaseline] <= GPT4AstroBaseline-1e-9 {
		t.Fatal("astro baseline fell") // baseline-only row: best == base, unchanged
	}
}
