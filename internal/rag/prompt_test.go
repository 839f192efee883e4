package rag

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mcq"
	"repro/internal/tokenizer"
)

// assemblePromptReference is AssemblePrompt as it stood before prompt
// planning, kept verbatim (bar the Prompt literal's shape): it builds the
// text first and counts the whole of it. The plan must reproduce it
// exactly.
func assemblePromptReference(q *mcq.Question, context []string, window int) Prompt {
	var b strings.Builder
	b.WriteString(instructionText)
	b.WriteString("\n\n")

	var qb strings.Builder
	qb.WriteString("Question: ")
	qb.WriteString(q.Question)
	qb.WriteString("\n")
	for i, opt := range q.Options {
		fmt.Fprintf(&qb, "%c) %s\n", rune('A'+i), opt)
	}
	qb.WriteString("Answer: ")

	fixed := tokenizer.CountTokens(instructionText) + tokenizer.CountTokens(qb.String()) + 16
	budget := window - fixed
	included := make([]bool, len(context))
	retained := make([]float64, len(context))

	if len(context) > 0 && budget > 0 {
		b.WriteString("Context:\n")
		for i, item := range context {
			itemTokens := tokenizer.CountTokens(item) + 4
			if itemTokens <= budget {
				fmt.Fprintf(&b, "[%d] %s\n", i+1, item)
				budget -= itemTokens
				included[i] = true
				retained[i] = 1
				continue
			}
			if i == 0 && budget > 32 {
				// Truncate the top-ranked item to fit rather than dropping
				// all context; the model sees (and benefits from) only the
				// retained fraction.
				cut := tokenizer.Truncate(item, budget-8)
				fmt.Fprintf(&b, "[%d] %s\n", i+1, cut)
				included[i] = true
				if itemTokens > 0 {
					retained[i] = float64(tokenizer.CountTokens(cut)) / float64(itemTokens)
				}
				budget = 0
			}
			// Lower-ranked items that do not fit are dropped (no partial
			// inclusion) — rank order means they are the least valuable.
		}
		b.WriteString("\n")
	}
	b.WriteString(qb.String())
	text := b.String()
	return Prompt{Text: text, Fit: Fit{Included: included, Retained: retained, Tokens: tokenizer.CountTokens(text)}}
}

// promptContexts are the context shapes the fit distinguishes.
func promptContexts(fx *fixture) map[string][]string {
	long := strings.Repeat("very long context sentence about dose fractionation at 1.8 Gy. ", 200)
	short := "Ionizing radiation induces double-strand breaks; p53's response is dose-dependent."
	return map[string][]string{
		"nil":                  nil,
		"fits":                 {short, "A second item, γ-H2AX foci – non-small cell."},
		"item-0-truncated":     {long, short, long},
		"lower-ranked dropped": {short, long, short + " trailing-"},
		"real chunks":          {fx.chunks[0].Text, fx.chunks[1].Text, fx.chunks[2].Text, fx.chunks[3].Text, fx.chunks[4].Text},
		"empty items":          {"", short, ""},
	}
}

var promptWindows = []int{64, 512, 2048, 8192, 131072}

func TestPromptPlanMatchesReference(t *testing.T) {
	fx := buildFixture(t, 2)
	q := fx.questions[0]
	saw := map[string]bool{}
	for name, ctx := range promptContexts(fx) {
		pl := PlanPrompt(q, ctx)
		for _, window := range promptWindows {
			want := assemblePromptReference(q, ctx, window)
			f := pl.Fit(window)
			if !reflect.DeepEqual(f.Included, want.Included) || !reflect.DeepEqual(f.Retained, want.Retained) {
				t.Errorf("%s @%d: fit %v %v, reference %v %v", name, window, f.Included, f.Retained, want.Included, want.Retained)
			}
			if f.Tokens != want.Tokens {
				t.Errorf("%s @%d: planned %d tokens, reference counts %d", name, window, f.Tokens, want.Tokens)
			}
			if got := pl.Text(f); got != want.Text {
				t.Errorf("%s @%d: text differs:\n%q\nreference:\n%q", name, window, got, want.Text)
			}
			if got := AssemblePrompt(q, ctx, window); !reflect.DeepEqual(got.Included, want.Included) ||
				!reflect.DeepEqual(got.Retained, want.Retained) || got.Tokens != want.Tokens || got.Text != want.Text {
				t.Errorf("%s @%d: AssemblePrompt departs from the reference", name, window)
			}
			for i, r := range want.Retained {
				switch {
				case r > 0 && r < 1:
					saw["truncated"] = true
				case r == 0 && i > 0 && i+1 < len(want.Retained) && want.Retained[i+1] == 1:
					saw["dropped then included"] = true
				}
			}
			if len(ctx) > 0 && !strings.Contains(want.Text, "Context:") {
				saw["no room for context"] = true
			}
		}
	}
	for _, branch := range []string{"truncated", "dropped then included", "no room for context"} {
		if !saw[branch] {
			t.Errorf("the cases never reached the %q branch", branch)
		}
	}
}

var (
	sinkPrompt Prompt
	sinkFit    Fit
)

func benchPromptInputs(b *testing.B) (*mcq.Question, []string) {
	fx := buildFixture(b, 2)
	return fx.questions[0], promptContexts(fx)["real chunks"]
}

// BenchmarkAssemblePrompt is the whole per-cell cost before planning: count
// every part and render the text, for one window.
func BenchmarkAssemblePrompt(b *testing.B) {
	q, ctx := benchPromptInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPrompt = AssemblePrompt(q, ctx, 8192)
	}
}

// BenchmarkPromptPlanFit is what a model × condition cell pays per question
// once the plan is shared.
func BenchmarkPromptPlanFit(b *testing.B) {
	q, ctx := benchPromptInputs(b)
	pl := PlanPrompt(q, ctx)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFit = pl.Fit(8192)
	}
}
