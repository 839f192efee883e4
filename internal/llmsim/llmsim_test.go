package llmsim

import (
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/chunk"
	"repro/internal/corpus"
	"repro/internal/mcq"
	"repro/internal/rng"
)

// --- calibration ---

func TestExpectedAccuracyMonotone(t *testing.T) {
	prev := 0.0
	for z := -8.0; z <= 8; z += 0.5 {
		acc := expectedAccuracy(z)
		if acc < prev {
			t.Fatalf("expectedAccuracy not monotone at z=%v", z)
		}
		prev = acc
	}
	if expectedAccuracy(0) < 0.49 || expectedAccuracy(0) > 0.51 {
		t.Fatalf("expectedAccuracy(0) = %v, want ~0.5", expectedAccuracy(0))
	}
}

func TestSolveAbilityInverts(t *testing.T) {
	for _, target := range []float64{0.089, 0.176, 0.38, 0.5, 0.745, 0.916, 0.99} {
		z := solveAbility(target)
		got := expectedAccuracy(z)
		want := target
		if want < 0.005 {
			want = 0.005
		}
		if want > 0.995 {
			want = 0.995
		}
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("solveAbility(%v): expectedAccuracy(z)=%v", target, got)
		}
	}
}

func TestSolveAbilityClamps(t *testing.T) {
	if z := solveAbility(-0.5); math.IsInf(z, 0) || math.IsNaN(z) {
		t.Fatal("negative target produced non-finite ability")
	}
	if z := solveAbility(1.5); math.IsInf(z, 0) || math.IsNaN(z) {
		t.Fatal("overshoot target produced non-finite ability")
	}
}

func TestAbilityMemoConcurrent(t *testing.T) {
	// The solved-ability memo is process-wide and a Student's cell cache
	// is shared by whoever holds the Student: hammer both from several
	// goroutines (the race gate runs this) and require the values a fresh
	// solve gives.
	p, err := ProfileByName("SmolLM3-3B")
	if err != nil {
		t.Fatal(err)
	}
	shared := NewStudent(p)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			own := NewStudent(p)
			for _, bench := range []Benchmark{BenchSynthetic, BenchAstro} {
				for _, math := range []bool{false, true} {
					for _, cond := range AllConditions {
						want := solveAbility(shared.targetsFor(bench, math)[cond])
						for _, s := range []*Student{shared, own} {
							if z, ok := s.ability(bench, math, cond); !ok || z != want {
								t.Errorf("%s/%t/%s: ability %v (ok %t), fresh solve %v", bench, math, cond, z, ok, want)
							}
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	if _, ok := NewStudent(GPT4Profile()).ability(BenchAstro, false, CondChunks); ok {
		t.Fatal("GPT-4 has no published chunk row, yet ability reports one")
	}
}

// Monte-Carlo check: simulated accuracy over N(0,1) difficulties matches
// the analytic calibration.
func TestCalibrationMonteCarlo(t *testing.T) {
	r := rng.New(99)
	for _, target := range []float64{0.2, 0.45, 0.8} {
		z := solveAbility(target)
		hits := 0
		const n = 200000
		for i := 0; i < n; i++ {
			if r.Bool(sigmoid(z - r.Normal(0, 1))) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-target) > 0.01 {
			t.Fatalf("target %v: MC accuracy %v", target, got)
		}
	}
}

// --- profiles ---

func TestProfilesRoster(t *testing.T) {
	ps := Profiles()
	if len(ps) != 8 {
		t.Fatalf("%d profiles, want 8", len(ps))
	}
	// Spot-check Table 1 metadata.
	byName := map[string]*Profile{}
	for _, p := range ps {
		byName[p.Name] = p
	}
	if byName["OLMo-7B"].ContextWindow != 2048 {
		t.Fatal("OLMo context window")
	}
	if byName["Gemma 3 4B-IT"].ContextWindow != 128000 || byName["Gemma 3 4B-IT"].ReleaseYear != 2025 {
		t.Fatal("Gemma metadata")
	}
	if byName["Qwen-1.5-14B-Chat"].ParamsB != 14 {
		t.Fatal("Qwen params")
	}
}

func TestProfilesCompleteTargets(t *testing.T) {
	for _, p := range Profiles() {
		for _, cond := range AllConditions {
			for _, tgt := range []Targets{p.Synthetic, p.AstroAll, p.AstroNoMath} {
				v, ok := tgt[cond]
				if !ok {
					t.Fatalf("%s: missing %s", p.Name, cond)
				}
				if v <= 0 || v >= 1 {
					t.Fatalf("%s %s: target %v out of (0,1)", p.Name, cond, v)
				}
			}
		}
	}
}

func TestPaperShapeInvariantsInTargets(t *testing.T) {
	// The qualitative claims of the paper hold in the calibration targets:
	// on the synthetic benchmark, chunks > baseline and best-RT > chunks
	// for every model.
	for _, p := range Profiles() {
		if p.Synthetic[CondChunks] <= p.Synthetic[CondBaseline] {
			t.Fatalf("%s: chunks not above baseline", p.Name)
		}
		bestRT := math.Max(p.Synthetic[CondRTDetail],
			math.Max(p.Synthetic[CondRTFocused], p.Synthetic[CondRTEfficient]))
		if bestRT <= p.Synthetic[CondChunks] {
			t.Fatalf("%s: best RT %v not above chunks %v", p.Name, bestRT, p.Synthetic[CondChunks])
		}
		// BestMode is consistent with the synthetic table.
		if p.Synthetic[TraceCondition(p.BestMode)] < bestRT-1e-9 {
			t.Fatalf("%s: BestMode %s is not the argmax", p.Name, p.BestMode)
		}
	}
}

func TestAstroChunksCanHurt(t *testing.T) {
	// Table 3's notable finding: chunk retrieval is below baseline for
	// OLMo-7B and RT below baseline for Llama-3-8B. The profiles encode it.
	p, err := ProfileByName("OLMo-7B")
	if err != nil {
		t.Fatal(err)
	}
	if p.AstroAll[CondChunks] >= p.AstroAll[CondBaseline] {
		t.Fatal("OLMo Astro chunk drop not encoded")
	}
	l3, _ := ProfileByName("Llama-3-8B-Instruct")
	best := l3.AstroAll[TraceCondition(l3.BestMode)]
	if best >= l3.AstroAll[CondBaseline] {
		t.Fatal("Llama-3-8B Astro RT regression not encoded")
	}
}

func TestAstroMathTargetsDerivation(t *testing.T) {
	p, _ := ProfileByName("OLMo-7B")
	m := p.AstroMathTargets()
	// math = (335*all - 189*nomath)/146 for the baseline column.
	want := (335*0.446 - 189*0.471) / 146
	if math.Abs(m[CondBaseline]-want) > 1e-9 {
		t.Fatalf("math baseline %v, want %v", m[CondBaseline], want)
	}
	// Mixture identity: (189*nomath + 146*math)/335 == all.
	for cond, all := range p.AstroAll {
		mixed := (189*p.AstroNoMath[cond] + 146*m[cond]) / 335
		if math.Abs(mixed-all) > 0.02 { // clamping can shift slightly
			t.Fatalf("%s: mixture %v vs all %v", cond, mixed, all)
		}
	}
}

func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("GPT-17"); err == nil {
		t.Fatal("unknown model found")
	}
}

func TestGPT4Profile(t *testing.T) {
	p := GPT4Profile()
	if p.AstroAll[CondBaseline] != GPT4AstroBaseline {
		t.Fatal("GPT-4 baseline mismatch")
	}
	s := NewStudent(p)
	if s.Supports(BenchAstro, CondChunks) {
		t.Fatal("GPT-4 should be baseline-only")
	}
	if !s.Supports(BenchAstro, CondBaseline) {
		t.Fatal("GPT-4 lacks baseline")
	}
}

// --- student ---

func mkQuestion(id string, math bool) *mcq.Question {
	return &mcq.Question{
		ID:       id,
		Question: "Which pathway repairs double-strand breaks in G1?",
		Options:  []string{"NHEJ", "HR", "BER", "MMR", "NER", "SSA", "TLS"},
		Answer:   0,
		Math:     math,
	}
}

func TestStudentBaselineAccuracyMatchesTarget(t *testing.T) {
	p, _ := ProfileByName("OLMo-7B")
	s := NewStudent(p)
	r := rng.New(7)
	hits, n := 0, 60000
	for i := 0; i < n; i++ {
		q := mkQuestion(questionID(i), false)
		resp := s.Answer(q, BenchSynthetic, CondBaseline, 0, 0, r)
		if resp.Choice == q.Answer {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.380) > 0.01 {
		t.Fatalf("OLMo synthetic baseline %v, want ~0.380", got)
	}
}

func questionID(i int) string {
	return "q-test-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26)) + string(rune('0'+(i/17576)%10))
}

func TestStudentConditionAccuracyAtFullUtility(t *testing.T) {
	p, _ := ProfileByName("TinyLlama-1.1B-Chat")
	s := NewStudent(p)
	r := rng.New(8)
	hits, n := 0, 60000
	for i := 0; i < n; i++ {
		q := mkQuestion(questionID(i), false)
		// u == uMean: published condition accuracy should be recovered.
		resp := s.Answer(q, BenchSynthetic, CondRTDetail, 0.85, 0.85, r)
		if resp.Choice == q.Answer {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.710) > 0.012 {
		t.Fatalf("TinyLlama RT-detail %v, want ~0.710", got)
	}
}

func TestStudentZeroUtilityCollapsesToBaseline(t *testing.T) {
	// The sabotage invariant: if retrieval returns nothing useful, every
	// RAG condition degenerates to baseline.
	p, _ := ProfileByName("SmolLM3-3B")
	s := NewStudent(p)
	q := mkQuestion("q-sabotage", false)
	base := s.AnswerProb(q, BenchSynthetic, CondBaseline, 0, 0)
	for _, cond := range []Condition{CondChunks, CondRTDetail, CondRTFocused, CondRTEfficient} {
		got := s.AnswerProb(q, BenchSynthetic, cond, 0, 0.85)
		if math.Abs(got-base) > 1e-9 {
			t.Fatalf("%s with u=0: prob %v != baseline %v", cond, got, base)
		}
	}
}

func TestStudentUtilityMonotone(t *testing.T) {
	p, _ := ProfileByName("SmolLM3-3B")
	s := NewStudent(p)
	q := mkQuestion("q-mono", false)
	prev := -1.0
	for u := 0.0; u <= 1.0; u += 0.1 {
		got := s.AnswerProb(q, BenchSynthetic, CondChunks, u, 0.8)
		if got < prev {
			t.Fatalf("accuracy not monotone in utility at u=%v", u)
		}
		prev = got
	}
}

func TestStudentNegativeGainDirection(t *testing.T) {
	// OLMo on Astro: chunks hurt, so more retrieval utility must *lower*
	// the answer probability.
	p, _ := ProfileByName("OLMo-7B")
	s := NewStudent(p)
	q := mkQuestion("q-neg", false)
	withRetrieval := s.AnswerProb(q, BenchAstro, CondChunks, 0.8, 0.8)
	without := s.AnswerProb(q, BenchAstro, CondChunks, 0, 0.8)
	if withRetrieval >= without {
		t.Fatalf("OLMo Astro chunks: retrieval should hurt (%v >= %v)", withRetrieval, without)
	}
}

func TestStudentProbabilityClamped(t *testing.T) {
	p, _ := ProfileByName("SmolLM3-3B")
	s := NewStudent(p)
	for i := 0; i < 200; i++ {
		q := mkQuestion(questionID(i), false)
		// An extreme utility ratio must not drive p outside the clamp.
		got := s.AnswerProb(q, BenchSynthetic, CondChunks, 100, 0.1)
		if got < probFloor || got > probCeil {
			t.Fatalf("probability %v escaped clamp", got)
		}
	}
}

func TestDifficultyStableAndSpread(t *testing.T) {
	if Difficulty("q-1") != Difficulty("q-1") {
		t.Fatal("difficulty unstable")
	}
	var sum, sumSq float64
	const n = 20000
	for i := 0; i < n; i++ {
		d := Difficulty(questionID(i))
		sum += d
		sumSq += d * d
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.05 || math.Abs(sd-1) > 0.05 {
		t.Fatalf("difficulty distribution mean %v sd %v", mean, sd)
	}
}

func TestMathQuestionsUseMathRow(t *testing.T) {
	p, _ := ProfileByName("TinyLlama-1.1B-Chat")
	s := NewStudent(p)
	qm := mkQuestion("q-math", true)
	qn := mkQuestion("q-math", false) // same id → same difficulty
	pm := s.AnswerProb(qm, BenchAstro, CondBaseline, 0, 0)
	pn := s.AnswerProb(qn, BenchAstro, CondBaseline, 0, 0)
	if pm >= pn {
		t.Fatalf("math questions should be harder for TinyLlama: %v vs %v", pm, pn)
	}
}

func TestAnswerResponseFormat(t *testing.T) {
	p, _ := ProfileByName("OLMo-7B")
	s := NewStudent(p)
	r := rng.New(3)
	q := mkQuestion("q-fmt", false)
	resp := s.Answer(q, BenchSynthetic, CondBaseline, 0, 0, r)
	if resp.Choice < 0 || resp.Choice >= len(q.Options) {
		t.Fatalf("choice %d out of range", resp.Choice)
	}
	if !strings.HasPrefix(resp.Text, "Answer: ") {
		t.Fatalf("response text %q", resp.Text)
	}
}

// --- teacher ---

func teacherFixture(t testing.TB) (*Teacher, *corpus.KB, []chunk.Chunk, *corpus.Document) {
	t.Helper()
	kb := corpus.Build(42, 20)
	g := corpus.NewGenerator(kb, 7)
	d := g.GenerateDoc(corpus.FullPaper, 0)
	chunks := chunk.New(chunk.DefaultConfig(), nil).Split(d.ID, d.Text())
	return NewTeacher(kb), kb, chunks, d
}

func TestGenerateMCQGrounded(t *testing.T) {
	teacher, kb, chunks, d := teacherFixture(t)
	r := rng.New(1)
	var grounded *mcq.Question
	for _, ch := range chunks {
		q := teacher.GenerateMCQ(ch, d.Facts, "corpus/"+d.ID+".spdf", r)
		if err := q.Validate(); err != nil {
			t.Fatalf("generated invalid question: %v", err)
		}
		if q.Prov.FactID != "" {
			grounded = q
			break
		}
	}
	if grounded == nil {
		t.Fatal("no grounded question generated from a fact-bearing paper")
	}
	if len(grounded.Options) != 7 {
		t.Fatalf("%d options, want 7", len(grounded.Options))
	}
	f := kb.Fact(corpus.FactID(grounded.Prov.FactID))
	if grounded.AnswerText() != f.Object {
		t.Fatalf("keyed answer %q != fact object %q", grounded.AnswerText(), f.Object)
	}
	if grounded.Prov.ChunkID == "" || grounded.Prov.DocID != d.ID {
		t.Fatal("provenance incomplete")
	}
	if grounded.Math != f.Math {
		t.Fatal("math flag not propagated")
	}
}

func TestGenerateMCQDeterministicID(t *testing.T) {
	teacher, _, chunks, d := teacherFixture(t)
	a := teacher.GenerateMCQ(chunks[0], d.Facts, "f", rng.New(1))
	b := teacher.GenerateMCQ(chunks[0], d.Facts, "f", rng.New(1))
	if a.ID != b.ID || a.Question != b.Question || a.Answer != b.Answer {
		t.Fatal("generation not deterministic")
	}
}

func TestGenerateMCQUngrounded(t *testing.T) {
	teacher, _, _, _ := teacherFixture(t)
	ch := chunk.Chunk{ID: "chunk-x", DocID: "d", Text: "These findings were consistent across all replicates examined. Further validation remains warranted."}
	q := teacher.GenerateMCQ(ch, nil, "f", rng.New(2))
	if q.Prov.FactID != "" {
		t.Fatal("ungrounded chunk produced grounded question")
	}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.Type != "comprehension" {
		t.Fatalf("type %q", q.Type)
	}
}

func TestJudgeQualitySeparatesGroundedness(t *testing.T) {
	teacher, _, chunks, d := teacherFixture(t)
	r := rng.New(3)
	groundedPass, groundedTotal := 0, 0
	ungroundedPass, ungroundedTotal := 0, 0
	for trial := 0; trial < 300; trial++ {
		for _, ch := range chunks {
			q := teacher.GenerateMCQ(ch, d.Facts, "f", r)
			c := teacher.JudgeQuality(q, r)
			if c.QualityScore < 1 || c.QualityScore > 10 {
				t.Fatalf("score %v out of rubric", c.QualityScore)
			}
			if q.Prov.FactID != "" {
				groundedTotal++
				if c.QualityScore >= 7 && c.Relevant {
					groundedPass++
				}
			} else {
				ungroundedTotal++
				if c.QualityScore >= 7 && c.Relevant {
					ungroundedPass++
				}
			}
		}
	}
	if groundedTotal == 0 || ungroundedTotal == 0 {
		t.Skip("fixture lacks one class")
	}
	gRate := float64(groundedPass) / float64(groundedTotal)
	uRate := float64(ungroundedPass) / float64(ungroundedTotal)
	if gRate < 0.2 || gRate > 0.7 {
		t.Fatalf("grounded pass rate %v implausible", gRate)
	}
	if uRate > 0.02 {
		t.Fatalf("ungrounded pass rate %v too high", uRate)
	}
}

func TestGenerateTracesAllModes(t *testing.T) {
	teacher, _, chunks, d := teacherFixture(t)
	r := rng.New(4)
	var q *mcq.Question
	for _, ch := range chunks {
		cand := teacher.GenerateMCQ(ch, d.Facts, "f", r)
		if cand.Prov.FactID != "" {
			q = cand
			break
		}
	}
	if q == nil {
		t.Fatal("no grounded question")
	}
	traces := teacher.GenerateTraces(q)
	if len(traces) != 3 {
		t.Fatalf("%d traces", len(traces))
	}
	seen := map[mcq.ReasoningMode]bool{}
	for _, tr := range traces {
		if err := tr.Validate(q.AnswerText()); err != nil {
			t.Fatalf("trace invalid: %v", err)
		}
		if tr.QuestionID != q.ID {
			t.Fatal("trace question link broken")
		}
		if !strings.Contains(tr.Reasoning, q.Question) {
			t.Fatal("trace does not restate the question")
		}
		seen[tr.Mode] = true
	}
	if len(seen) != 3 {
		t.Fatalf("modes %v", seen)
	}
	// Detailed mode is the longest; efficient the shortest.
	var detail, efficient string
	for _, tr := range traces {
		switch tr.Mode {
		case mcq.ModeDetailed:
			detail = tr.Reasoning
		case mcq.ModeEfficient:
			efficient = tr.Reasoning
		}
	}
	if len(detail) <= len(efficient) {
		t.Fatal("detailed trace not longer than efficient")
	}
}

func TestTraceNeverAssertsAnswer(t *testing.T) {
	teacher, _, chunks, d := teacherFixture(t)
	r := rng.New(5)
	for _, ch := range chunks {
		q := teacher.GenerateMCQ(ch, d.Facts, "f", r)
		for _, tr := range teacher.GenerateTraces(q) {
			low := strings.ToLower(tr.Reasoning)
			if strings.Contains(low, "correct answer is") {
				t.Fatalf("trace asserts the answer: %q", tr.Reasoning)
			}
			if !tr.AnswerExcluded {
				t.Fatal("answer_excluded unset")
			}
		}
	}
}

// --- judge ---

func TestJudgeParsesFormats(t *testing.T) {
	q := mkQuestion("q-j", false)
	j := NewJudge()
	cases := []struct {
		reply string
		want  int
	}{
		{"Answer: A — NHEJ is canonical in G1.", 0},
		{"answer is b", 1},
		{"C) because of sister chromatids", 2},
		{"(d)", 3},
		{"E.", 4},
		{"I believe the answer is F, given the assay.", 5},
		{"The correct choice is NHEJ.", 0}, // verbatim option text
		{"mumble mumble no idea", -1},
	}
	for _, tc := range cases {
		g := j.GradeResponse(q, tc.reply)
		if g.ParsedChoice != tc.want {
			t.Errorf("reply %q: parsed %d, want %d", tc.reply, g.ParsedChoice, tc.want)
		}
		if g.Reasoning == "" {
			t.Errorf("reply %q: no judge reasoning", tc.reply)
		}
	}
}

func TestJudgeCorrectness(t *testing.T) {
	q := mkQuestion("q-j2", false)
	j := NewJudge()
	if !j.GradeResponse(q, "Answer: A").Correct {
		t.Fatal("correct answer graded wrong")
	}
	if j.GradeResponse(q, "Answer: B").Correct {
		t.Fatal("wrong answer graded correct")
	}
	if j.GradeResponse(q, "???").Correct {
		t.Fatal("unparseable graded correct")
	}
}

func TestJudgeLongestOptionMatch(t *testing.T) {
	q := &mcq.Question{
		ID: "q-j3", Question: "pick", Answer: 1,
		Options: []string{"end joining", "non-homologous end joining", "recombination"},
	}
	g := NewJudge().GradeResponse(q, "It must be non-homologous end joining.")
	if g.ParsedChoice != 1 {
		t.Fatalf("parsed %d, want longest option 1", g.ParsedChoice)
	}
}

func TestStudentAnswerGradedByJudge(t *testing.T) {
	// End-to-end: student emits text, judge parses it back to the choice.
	p, _ := ProfileByName("Mistral-7B-Instruct-v0.3")
	s := NewStudent(p)
	j := NewJudge()
	r := rng.New(11)
	for i := 0; i < 200; i++ {
		q := mkQuestion(questionID(i), false)
		resp := s.Answer(q, BenchSynthetic, CondBaseline, 0, 0, r)
		g := j.GradeResponse(q, resp.Text)
		if g.ParsedChoice != resp.Choice {
			t.Fatalf("judge parsed %d, student chose %d (text %q)", g.ParsedChoice, resp.Choice, resp.Text)
		}
		if g.Correct != (resp.Choice == q.Answer) {
			t.Fatal("judge correctness mismatch")
		}
	}
}

func BenchmarkAnswerProb(b *testing.B) {
	p, _ := ProfileByName("SmolLM3-3B")
	s := NewStudent(p)
	q := mkQuestion("q-bench", false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.AnswerProb(q, BenchSynthetic, CondRTFocused, 0.8, 0.8)
	}
}

func BenchmarkGenerateMCQ(b *testing.B) {
	kb := corpus.Build(42, 20)
	g := corpus.NewGenerator(kb, 7)
	d := g.GenerateDoc(corpus.FullPaper, 0)
	chunks := chunk.New(chunk.DefaultConfig(), nil).Split(d.ID, d.Text())
	teacher := NewTeacher(kb)
	r := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = teacher.GenerateMCQ(chunks[i%len(chunks)], d.Facts, "f", r)
	}
}
