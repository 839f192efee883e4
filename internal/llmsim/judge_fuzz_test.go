package llmsim

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mcq"
	"repro/internal/rng"
)

// The grading judge must never panic and must always emit an in-range (or
// -1) parsed choice, whatever a model replies with — including control
// characters, unicode, and adversarial strings that mention several
// options.

func TestJudgeNeverPanics(t *testing.T) {
	q := &mcq.Question{
		ID: "q-fuzz", Question: "pick one", Answer: 1,
		Options: []string{"alpha option", "beta option", "gamma option", "delta"},
	}
	j := NewJudge()
	f := func(reply string) bool {
		g := j.GradeResponse(q, reply)
		if g.ParsedChoice < -1 || g.ParsedChoice >= len(q.Options) {
			return false
		}
		if g.Correct && g.ParsedChoice != q.Answer {
			return false
		}
		return g.Reasoning() != ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestJudgeAdversarialReplies(t *testing.T) {
	q := &mcq.Question{
		ID: "q-adv", Question: "pick", Answer: 0,
		Options: []string{"homologous recombination", "non-homologous end joining", "mismatch repair"},
	}
	j := NewJudge()
	cases := []struct {
		reply string
		want  int
	}{
		// Mentions several options: the explicit marker wins.
		{"Both homologous recombination and mismatch repair matter, but Answer: B.", 1},
		// Only option mentions, longest must win.
		{"non-homologous end joining, not homologous recombination", 1},
		// Letter marker with trailing unicode dash.
		{"Answer: A — because of sister chromatids", 0},
		// Empty reply.
		{"", -1},
		// Letters beyond the option count are not choices.
		{"Z", -1},
		// Control characters.
		{"\x00\x01Answer: c\x02", 2},
	}
	for _, tc := range cases {
		if got := j.GradeResponse(q, tc.reply).ParsedChoice; got != tc.want {
			t.Errorf("reply %q: parsed %d, want %d", tc.reply, got, tc.want)
		}
	}
}

func TestJudgeParsesGeneratedReplies(t *testing.T) {
	// Replies produced by the student's two format paths (structured and
	// free-form drift) must always parse back to the sampled choice.
	p, err := ProfileByName("TinyLlama-1.1B-Chat") // lowest format reliability
	if err != nil {
		t.Fatal(err)
	}
	s := NewStudent(p)
	j := NewJudge()
	r := rng.New(31)
	q := mkQuestion("q-gen", false)
	freeform := 0
	for i := 0; i < 500; i++ {
		resp := s.Answer(q, BenchSynthetic, CondBaseline, 0, 0, r)
		if !strings.HasPrefix(resp.Text, "Answer: ") {
			freeform++
		}
		g := j.GradeResponse(q, resp.Text)
		if g.ParsedChoice != resp.Choice {
			t.Fatalf("judge parsed %d for choice %d (reply %q)", g.ParsedChoice, resp.Choice, resp.Text)
		}
	}
	// TinyLlama drifts ~20% of the time; both paths must actually occur.
	if freeform < 50 || freeform > 150 {
		t.Fatalf("free-form replies %d/500, want ~100", freeform)
	}
}
