package rag

import (
	"fmt"
	"strings"

	"repro/internal/mcq"
	"repro/internal/tokenizer"
)

// Prompt is an assembled evaluation prompt: its text plus the accounting of
// which retrieved items survived the model's context window.
type Prompt struct {
	Text string
	Fit
}

// Fit is the accounting of one prompt plan against one context window.
type Fit struct {
	// Included marks, per retrieved item in rank order, whether any part
	// of the item fit in the window.
	Included []bool
	// Retained gives, per item, the fraction of its tokens that made it
	// into the prompt (1 fully included, 0 dropped, fractional when the
	// top item was truncated to fit). Utility scales by this — a model
	// that saw half the relevant chunk gets half the signal. This is how
	// small-window models (OLMo, TinyLlama at 2,048 tokens) lose part of
	// their retrieval benefit mechanistically.
	Retained []float64
	Tokens   int

	// contextBlock records that the window left room for a "Context:"
	// section at all; cut is the top item as truncated to fit, when it
	// was. Text needs both and nothing else beyond the plan.
	contextBlock bool
	cut          string
}

const instructionText = "You are answering a multiple-choice question in radiation and cancer biology. " +
	"Use the provided context if helpful. Reply with 'Answer: <letter>' followed by a brief justification."

var instructionWords = tokenizer.NumTokens(instructionText)

// Word tokens of the prompt's own scaffolding: the "Context:" header and
// the "[n]" label in front of each item.
const (
	contextHeaderWords = 2
	itemLabelWords     = 3
)

// PromptPlan is the window-independent half of prompt assembly: the
// rendered question block and the token count of every part, taken once.
// The evaluation harness builds one plan per (condition, question) and
// fits it to each model's window, which is arithmetic only. A plan is
// immutable once built and safe to share between goroutines.
type PromptPlan struct {
	question string   // "Question: … Answer: " block
	context  []string // retrieved items, rank order
	// fixed is the LLM-token budget spent before any context: the
	// instructions, the question block and a reserve for the reply.
	fixed int
	// Word-token counts. Every part of the prompt ends in whitespace, so
	// the assembled text's count is the sum of its parts' counts.
	questionWords int
	itemWords     []int
}

// PlanPrompt counts the parts of the evaluation prompt for a question with
// retrieved context texts (rank order).
func PlanPrompt(q *mcq.Question, context []string) *PromptPlan {
	var qb strings.Builder
	qb.WriteString("Question: ")
	qb.WriteString(q.Question)
	qb.WriteString("\n")
	for i, opt := range q.Options {
		fmt.Fprintf(&qb, "%c) %s\n", rune('A'+i), opt)
	}
	qb.WriteString("Answer: ")

	pl := &PromptPlan{question: qb.String(), context: context, itemWords: make([]int, len(context))}
	pl.questionWords = tokenizer.NumTokens(pl.question)
	pl.fixed = tokenizer.LLMTokens(instructionWords) + tokenizer.LLMTokens(pl.questionWords) + 16
	for i, item := range context {
		pl.itemWords[i] = tokenizer.NumTokens(item)
	}
	return pl
}

// Fit decides what of the plan's context a model with the given window (in
// approximate tokens) sees. The question and options are always included;
// context items are added greedily by rank until the budget is exhausted,
// each truncated to fit only if it is the first item (so every model sees
// at least some context when any was retrieved, as evaluation harnesses
// do). Only that truncation touches text; everything else is arithmetic on
// the plan's counts.
func (pl *PromptPlan) Fit(window int) Fit {
	budget := window - pl.fixed
	f := Fit{
		Included: make([]bool, len(pl.context)),
		Retained: make([]float64, len(pl.context)),
	}
	words := instructionWords + pl.questionWords
	if len(pl.context) > 0 && budget > 0 {
		f.contextBlock = true
		words += contextHeaderWords
		for i, n := range pl.itemWords {
			itemTokens := tokenizer.LLMTokens(n) + 4
			if itemTokens <= budget {
				budget -= itemTokens
				f.Included[i] = true
				f.Retained[i] = 1
				words += itemLabelWords + n
				continue
			}
			if i == 0 && budget > 32 {
				// Truncate the top-ranked item to fit rather than dropping
				// all context; the model sees (and benefits from) only the
				// retained fraction.
				f.cut = tokenizer.Truncate(pl.context[0], budget-8)
				cutWords := tokenizer.NumTokens(f.cut)
				f.Included[0] = true
				f.Retained[0] = float64(tokenizer.LLMTokens(cutWords)) / float64(itemTokens)
				words += itemLabelWords + cutWords
				budget = 0
			}
			// Lower-ranked items that do not fit are dropped (no partial
			// inclusion) — rank order means they are the least valuable.
		}
	}
	f.Tokens = tokenizer.LLMTokens(words)
	return f
}

// Text renders the prompt a fit describes. f must come from pl.Fit.
func (pl *PromptPlan) Text(f Fit) string {
	var b strings.Builder
	b.WriteString(instructionText)
	b.WriteString("\n\n")
	if f.contextBlock {
		b.WriteString("Context:\n")
		for i, item := range pl.context {
			if !f.Included[i] {
				continue
			}
			if f.Retained[i] < 1 {
				item = f.cut
			}
			fmt.Fprintf(&b, "[%d] %s\n", i+1, item)
		}
		b.WriteString("\n")
	}
	b.WriteString(pl.question)
	return b.String()
}

// AssemblePrompt builds the evaluation prompt for a question with retrieved
// context texts (rank order), respecting the model's context window in
// approximate tokens: plan, fit, render. Callers that evaluate one question
// against many windows keep the plan and call Fit per window instead.
func AssemblePrompt(q *mcq.Question, context []string, window int) Prompt {
	pl := PlanPrompt(q, context)
	f := pl.Fit(window)
	return Prompt{Text: pl.Text(f), Fit: f}
}
