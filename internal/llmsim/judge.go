package llmsim

import (
	"fmt"
	"strings"

	"repro/internal/mcq"
)

// Grade is the output of the grading judge: the parsed choice, whether it
// matches the gold answer, and the judge's reasoning — the paper's workflow
// ends with "an arbitrary LLM judge performs the grading and provides a
// reasoning". The evaluation reads only the choice and the verdict, so the
// reasoning is rendered on demand by Reasoning rather than for every
// answer graded.
type Grade struct {
	ParsedChoice int  `json:"parsed_choice"` // -1 when unparseable
	Correct      bool `json:"correct"`
	q            *mcq.Question
}

// Judge grades free-text model responses against the gold answer.
type Judge struct {
	Name string
}

// NewJudge returns the default grading judge.
func NewJudge() *Judge { return &Judge{Name: "judge-sim"} }

// GradeResponse parses the model's reply and compares it to the gold
// option. The parser is deliberately tolerant — real SLM replies range from
// a bare letter to full sentences — and mirrors LLM-judge robustness:
// it accepts "Answer: C", "C)", "(c)", "the answer is c", or a verbatim
// option string anywhere in the reply.
func (j *Judge) GradeResponse(q *mcq.Question, reply string) Grade {
	choice := parseChoice(reply, q.Options)
	return Grade{ParsedChoice: choice, Correct: choice >= 0 && choice == q.Answer, q: q}
}

// Reasoning renders the judge's justification of a grade GradeResponse
// returned.
func (g Grade) Reasoning() string {
	switch {
	case g.ParsedChoice < 0:
		return "no option letter or option text could be identified in the reply"
	case g.Correct:
		return fmt.Sprintf("reply selects option %c, which matches the keyed answer %q",
			rune('A'+g.ParsedChoice), g.q.AnswerText())
	default:
		return fmt.Sprintf("reply selects option %c (%q) but the keyed answer is %c (%q)",
			rune('A'+g.ParsedChoice), g.q.Options[g.ParsedChoice], rune('A'+g.q.Answer), g.q.AnswerText())
	}
}

// parseChoice extracts an option index from a free-text reply, or -1.
func parseChoice(reply string, options []string) int {
	low := strings.ToLower(reply)

	// 1) Explicit markers: "answer: c", "answer is c".
	for _, marker := range []string{"answer:", "answer is"} {
		if i := strings.Index(low, marker); i >= 0 {
			if c := firstLetterChoice(low[i+len(marker):], len(options)); c >= 0 {
				return c
			}
		}
	}
	// 2) Leading letter forms: "C", "C)", "(c)", "c.", "c —".
	trimmed := strings.TrimLeft(low, " \t(")
	if c := firstLetterChoice(trimmed, len(options)); c >= 0 {
		if len(trimmed) == 1 || isDelim(trimmed[1]) {
			return c
		}
	}
	// 3) Verbatim option text (longest match wins, so a reply quoting a
	// superstring option is not misattributed to a substring option).
	best, bestLen := -1, 0
	for i, opt := range options {
		o := strings.ToLower(opt)
		if strings.Contains(low, o) && len(o) > bestLen {
			best, bestLen = i, len(o)
		}
	}
	return best
}

func firstLetterChoice(s string, n int) int {
	s = strings.TrimLeft(s, " \t(")
	if s == "" {
		return -1
	}
	c := s[0]
	if c >= 'a' && int(c-'a') < n {
		if len(s) == 1 || isDelim(s[1]) {
			return int(c - 'a')
		}
	}
	return -1
}

// isDelim reports whether b terminates a bare option letter: anything that
// cannot continue a word does (punctuation, whitespace, control bytes,
// UTF-8 lead bytes of dashes), so "c)", "c.", "c —" and "c\x02" all parse.
func isDelim(b byte) bool {
	if b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9' {
		return false
	}
	return true
}
