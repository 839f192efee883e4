package llmsim

import (
	"fmt"
	"strings"

	"repro/internal/chunk"
	"repro/internal/corpus"
	"repro/internal/mcq"
	"repro/internal/rng"
	"repro/internal/tokenizer"
)

// TeacherName identifies the simulated GPT-4.1 across artifacts.
const TeacherName = "gpt-4.1-sim"

// Teacher is the simulated large model the pipeline calls for chunk
// summarisation, MCQ synthesis, quality judging, and reasoning-trace
// distillation (the GPT-4.1 role behind the Argo gateway in the paper).
type Teacher struct {
	KB *corpus.KB
	// NumOptions is the option count of generated questions (the paper
	// generates seven options per question).
	NumOptions int
}

// NewTeacher returns a teacher over the knowledge base with the paper's
// seven-option format.
func NewTeacher(kb *corpus.KB) *Teacher {
	return &Teacher{KB: kb, NumOptions: 7}
}

// FactsInChunk returns the subset of candidate facts whose canonical
// sentence appears verbatim in the chunk text, in candidate order.
func (t *Teacher) FactsInChunk(ch chunk.Chunk, candidates []corpus.FactID) []*corpus.Fact {
	var out []*corpus.Fact
	for _, id := range candidates {
		f := t.KB.Fact(id)
		if f != nil && strings.Contains(ch.Text, f.Sentence()) {
			out = append(out, f)
		}
	}
	return out
}

// questionType maps a relation to the question taxonomy stored in the
// schema's type field.
func questionType(rel corpus.Relation) string {
	switch rel {
	case corpus.RelDoseOf:
		return "dose"
	case corpus.RelMechanismOf, corpus.RelCauses:
		return "mechanism"
	case corpus.RelMeasuredBy:
		return "methods"
	case corpus.RelTreats, corpus.RelSensitizes, corpus.RelProtects:
		return "clinical"
	default:
		return "factual"
	}
}

// GenerateMCQ synthesises one candidate question from a chunk. candidates
// lists the facts of the source document; the teacher grounds the question
// in a fact whose sentence the chunk actually contains. Chunks with no
// grounded fact still yield a candidate (as the paper generates one per
// chunk) but of generic type that the quality judge scores low. filePath is
// the source container path recorded in provenance.
func (t *Teacher) GenerateMCQ(ch chunk.Chunk, candidates []corpus.FactID, filePath string, r *rng.Source) *mcq.Question {
	facts := t.FactsInChunk(ch, candidates)
	q := &mcq.Question{
		ID:    fmt.Sprintf("q-%016x", rng.HashStrings("question", ch.ID)),
		Chunk: ch.Text,
		Prov: mcq.Provenance{
			ChunkID:  ch.ID,
			DocID:    ch.DocID,
			FilePath: filePath,
		},
	}
	if len(facts) == 0 {
		// Ungrounded candidate: a vague comprehension stem with generic
		// options. Kept so the quality filter has realistic rejects.
		words := tokenizer.Words(ch.Text)
		topic := "the reported findings"
		if len(words) > 3 {
			topic = strings.Join(words[2:min(6, len(words))], " ")
		}
		q.Question = fmt.Sprintf("Which statement best characterizes %s?", topic)
		q.Type = "comprehension"
		q.Options = genericOptions(t.NumOptions, r)
		q.Answer = r.Intn(len(q.Options))
		return q
	}
	f := facts[r.Intn(len(facts))]
	q.Prov.FactID = string(f.ID)
	q.Question = f.QuestionStem()
	q.Type = questionType(f.Relation)
	q.Topic = t.KB.Topics[f.Topic].Name
	q.Math = f.Math

	distractors := t.KB.Distractors(f, t.NumOptions-1, r)
	options := append([]string{f.Object}, distractors...)
	// Shuffle options, tracking the correct index.
	correct := 0
	r.Shuffle(len(options), func(i, j int) {
		options[i], options[j] = options[j], options[i]
		switch correct {
		case i:
			correct = j
		case j:
			correct = i
		}
	})
	q.Options = options
	q.Answer = correct
	return q
}

func genericOptions(n int, r *rng.Source) []string {
	pool := []string{
		"The effect was uniformly absent across conditions",
		"The observation replicates prior null results",
		"A dose-independent plateau was recorded",
		"The finding applies only to in vitro systems",
		"No mechanistic interpretation was offered",
		"The result contradicts the prevailing model",
		"An artifact of the assay cannot be excluded",
		"The measurement lacked statistical power",
		"The outcome reflects selection bias alone",
	}
	idx := r.SampleK(len(pool), n)
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

// JudgeQuality scores a candidate question on the paper's 1-10 rubric —
// clarity, accuracy, distractor plausibility, educational value, each
// scored separately and averaged — and sets the relevance flag. Grounded
// questions with a full distractor slate score high; ungrounded or thin
// candidates score low, so the 7/10 threshold reproduces the paper's
// ~10:1 candidate-to-benchmark filtering.
func (t *Teacher) JudgeQuality(q *mcq.Question, r *rng.Source) mcq.Checks {
	grounded := q.Prov.FactID != ""
	// Per-dimension means chosen so the equal-weight overall keeps the
	// calibrated acceptance regime; dimensions get correlated noise (one
	// shared judge-disposition draw plus per-dimension jitter).
	var mu mcq.Rubric
	switch {
	case !grounded:
		mu = mcq.Rubric{Clarity: 4.4, Accuracy: 2.4, Distractors: 2.8, Educational: 3.2}
	case len(q.Options) < t.NumOptions:
		// Thin distractor slate: penalised but sometimes acceptable.
		mu = mcq.Rubric{Clarity: 6.6, Accuracy: 6.8, Distractors: 4.0, Educational: 5.8}
	default:
		mu = mcq.Rubric{Clarity: 6.7, Accuracy: 6.5, Distractors: 5.7, Educational: 5.9}
	}
	disposition := r.Normal(0, 1.05)
	dim := func(mean float64) float64 {
		s := mean + disposition + r.Normal(0, 0.85)
		if s < 1 {
			s = 1
		}
		if s > 10 {
			s = 10
		}
		return round1(s)
	}
	rubric := mcq.Rubric{
		Clarity:     dim(mu.Clarity),
		Accuracy:    dim(mu.Accuracy),
		Distractors: dim(mu.Distractors),
		Educational: dim(mu.Educational),
	}
	score := round1(rubric.Overall())
	rationale := "distractors share the answer category; stem is self-contained"
	if !grounded {
		rationale = "stem is not anchored to a verifiable statement in the chunk"
	}
	return mcq.Checks{
		Relevant:     grounded && score >= 4,
		QualityScore: score,
		Rubric:       rubric,
		JudgeModel:   TeacherName,
		Rationale:    rationale,
	}
}

func round1(x float64) float64 {
	return float64(int(x*10+0.5)) / 10
}

// GenerateTrace distils the teacher's reasoning for a question in one of
// the paper's three modes (Figure 3): detailed option-level analysis,
// focused principle-plus-elimination, or an efficient compact rationale.
// The final answer is excluded, per the paper's leakage guard; the trace
// discusses the governing relationship and eliminates option categories
// without asserting the correct choice.
func (t *Teacher) GenerateTrace(q *mcq.Question, mode mcq.ReasoningMode) *mcq.Trace {
	f := (*corpus.Fact)(nil)
	if q.Prov.FactID != "" {
		f = t.KB.Fact(corpus.FactID(q.Prov.FactID))
	}
	var b strings.Builder
	// Restate the question so trace embeddings sit near question
	// embeddings — that proximity is what makes trace retrieval work.
	fmt.Fprintf(&b, "Question under analysis: %s ", q.Question)
	switch mode {
	case mcq.ModeDetailed:
		b.WriteString("Consider each option in turn. ")
		for i, opt := range q.Options {
			fmt.Fprintf(&b, "Option %c, %q: ", rune('A'+i), opt)
			if f != nil {
				fmt.Fprintf(&b, "weigh this against the established behaviour of %s in %s. ",
					f.Subject, relationDomain(f.Relation))
			} else {
				b.WriteString("assess internal consistency with the stem. ")
			}
		}
		if f != nil {
			fmt.Fprintf(&b, "The decisive consideration is the documented relationship of %s via %s; options inconsistent with that relationship can be excluded.",
				f.Subject, relationPhrase(f.Relation))
		} else {
			b.WriteString("Prefer the option that makes a specific, verifiable claim.")
		}
	case mcq.ModeFocused:
		if f != nil {
			fmt.Fprintf(&b, "The governing principle: %s %s exactly one of the listed candidates, a relationship documented in the %s literature. ",
				f.Subject, relationVerb(f.Relation), t.KB.Topics[f.Topic].Name)
			b.WriteString("Eliminate options belonging to unrelated pathways or modalities; one candidate uniquely satisfies the principle.")
		} else {
			b.WriteString("The governing principle is specificity: eliminate options that hedge or generalise beyond the stem.")
		}
	case mcq.ModeEfficient:
		if f != nil {
			fmt.Fprintf(&b, "Recall the canonical pairing for %s under %s and eliminate the rest.",
				f.Subject, relationPhrase(f.Relation))
		} else {
			b.WriteString("Pick the most specific, mechanistically grounded option.")
		}
	default:
		panic("llmsim: unknown trace mode " + string(mode))
	}
	return &mcq.Trace{
		ID:             fmt.Sprintf("tr-%s-%s", q.ID, mode),
		QuestionID:     q.ID,
		Mode:           mode,
		Model:          TeacherName,
		Reasoning:      b.String(),
		AnswerExcluded: true,
	}
}

// GenerateTraces produces all three modes for a question, as the paper
// generates the modes simultaneously in one teacher call.
func (t *Teacher) GenerateTraces(q *mcq.Question) []*mcq.Trace {
	out := make([]*mcq.Trace, 0, len(mcq.AllModes))
	for _, m := range mcq.AllModes {
		out = append(out, t.GenerateTrace(q, m))
	}
	return out
}

func relationDomain(rel corpus.Relation) string {
	switch rel {
	case corpus.RelActivates, corpus.RelInhibits, corpus.RelRegulates:
		return "signaling"
	case corpus.RelRepairedBy, corpus.RelCauses, corpus.RelMechanismOf:
		return "DNA damage and repair"
	case corpus.RelTreats, corpus.RelSensitizes, corpus.RelProtects, corpus.RelDoseOf:
		return "clinical radiotherapy"
	case corpus.RelMeasuredBy, corpus.RelMarkerOf:
		return "assay methodology"
	default:
		return "radiation biology"
	}
}

func relationPhrase(rel corpus.Relation) string {
	return strings.ReplaceAll(string(rel), "_", " ")
}

func relationVerb(rel corpus.Relation) string {
	switch rel {
	case corpus.RelActivates:
		return "activates"
	case corpus.RelInhibits:
		return "inhibits"
	case corpus.RelCauses:
		return "causes"
	case corpus.RelRepairedBy:
		return "is repaired by"
	case corpus.RelMarkerOf:
		return "marks"
	case corpus.RelTreats:
		return "treats"
	case corpus.RelSensitizes:
		return "sensitizes cells to"
	case corpus.RelProtects:
		return "protects against"
	case corpus.RelMeasuredBy:
		return "is measured by"
	case corpus.RelRegulates:
		return "regulates"
	case corpus.RelDoseOf:
		return "is dosed at"
	case corpus.RelMechanismOf:
		return "operates through"
	default:
		return "relates to"
	}
}
