package rag

import (
	"strings"

	"repro/internal/corpus"
	"repro/internal/mcq"
)

// Retrieval utility: the measured, per-question answer-relevant signal that
// retrieval actually delivered, on [0, 1]. The corpus generator's ground
// truth (which fact each chunk sentence realises, which fact each question
// tests) makes this an oracle measurement rather than an assumption: if the
// vector store returns junk, utility is 0 and the simulated students gain
// nothing (DESIGN.md §4).
//
// Grading per retrieved item, best item wins (rank-discounted):
//
//	exact fact present           1.00  (chunk contains the fact sentence /
//	                                    trace distilled from the same fact)
//	same subject discussed       0.55  (right entity, wrong statement)
//	same topic                   0.25  (topical but non-specific)
//	otherwise                    0.05  (plausible-looking noise)
//
// Trace items additionally carry a mode-specific information density: the
// paper finds detailed traces can "trail slightly, likely due to noise from
// over-elaboration" (§3.1.3), which we reproduce as a small density penalty.

// relevance grades one retrieved text against the question's source fact
// f (nil when the question has none or the knowledge base lacks it).
func relevance(kb *corpus.KB, q *mcq.Question, f *corpus.Fact, text string, itemFactID string) float64 {
	if f == nil {
		return 0.05
	}
	if itemFactID == q.Prov.FactID {
		return 1.0
	}
	if itemFactID == "" && strings.Contains(text, f.Sentence()) {
		return 1.0
	}
	if strings.Contains(text, f.Subject) {
		return 0.55
	}
	// Topic match: any keyword of the fact's topic present.
	topic := kb.Topics[f.Topic]
	lower := strings.ToLower(text)
	for _, kw := range topic.Keywords {
		if len(kw) > 4 && strings.Contains(lower, kw) {
			return 0.25
		}
	}
	return 0.05
}

// rankDiscount weights items by retrieval rank: rank 0 full credit,
// decaying gently (models attend most to the top of the context).
func rankDiscount(rank int) float64 {
	d := 1.0 - 0.08*float64(rank)
	if d < 0.5 {
		return 0.5
	}
	return d
}

// modeDensity is the answer-relevant information density of a trace mode.
var modeDensity = map[mcq.ReasoningMode]float64{
	mcq.ModeDetailed:  0.94, // over-elaboration noise (paper §3.1.3)
	mcq.ModeFocused:   1.00,
	mcq.ModeEfficient: 0.98,
}

// chunkDensity reflects that raw literature chunks mix answer-relevant
// sentences with experimental filler, diluting the signal relative to a
// distilled trace — the paper's central finding.
const chunkDensity = 0.78

// retainedFraction reads the per-item retained fraction from a prompt's
// Retained vector; nil means fully included.
func retainedFraction(retained []float64, i int) float64 {
	if retained == nil {
		return 1
	}
	if i >= len(retained) {
		return 0
	}
	return retained[i]
}

// Grades grades each retrieved hit's relevance to a question, in hit
// order. The grades depend on the question and the hits only, not on a
// model, so an evaluation grades each (condition, question) once and
// shares the grades across models. mode is the trace store's reasoning
// mode, or "" for chunk hits. facts maps a trace hit's Group (its
// source-question id) to that question's fact (QuestionFactMap of the
// distilled questions); chunk hits ignore it and are graded on their text.
func Grades(kb *corpus.KB, q *mcq.Question, mode mcq.ReasoningMode, facts map[string]string, hits []Hit) []float64 {
	var f *corpus.Fact
	if q.Prov.FactID != "" {
		f = kb.Fact(corpus.FactID(q.Prov.FactID))
	}
	grades := make([]float64, len(hits))
	for i, h := range hits {
		itemFact := ""
		if mode != "" {
			itemFact = facts[h.Group]
		}
		grades[i] = relevance(kb, q, f, h.Text, itemFact)
	}
	return grades
}

// UtilityOf measures the utility of graded hits (Grades), honouring the
// prompt's per-item retained fractions (nil means all fully included): a
// truncated item contributes proportionally to how much of it the model
// actually saw.
func UtilityOf(grades []float64, mode mcq.ReasoningMode, retained []float64) float64 {
	density := chunkDensity
	if mode != "" {
		density = modeDensity[mode]
	}
	best := 0.0
	for i, g := range grades {
		frac := retainedFraction(retained, i)
		if frac <= 0 {
			continue
		}
		rel := g * rankDiscount(i) * density * frac
		if rel > best {
			best = rel
		}
	}
	return best
}

// Utility measures the utility of retrieved hits for a question: their
// Grades, weighted by UtilityOf. An evaluation that scores the same hits
// for several models grades them once and calls UtilityOf per model.
func Utility(kb *corpus.KB, q *mcq.Question, mode mcq.ReasoningMode, facts map[string]string, hits []Hit, retained []float64) float64 {
	return UtilityOf(Grades(kb, q, mode, facts, hits), mode, retained)
}
