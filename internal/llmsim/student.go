package llmsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mcq"
	"repro/internal/rng"
)

// Benchmark identifies which published accuracy row calibrates the student.
type Benchmark string

const (
	// BenchSynthetic is the paper's 16,680-question generated benchmark.
	BenchSynthetic Benchmark = "synthetic"
	// BenchAstro is the 2023 ASTRO Radiation and Cancer Biology exam.
	BenchAstro Benchmark = "astro"
)

// Student is a simulated evaluated model. Given a question, a condition,
// and the *measured* retrieval utility for that question, it answers with a
// probability interpolated between its baseline and condition response
// curves by the utility ratio:
//
//	p_q = σ(z_base − b_q) + (σ(z_cond − b_q) − σ(z_base − b_q)) · u/ū
//
// clamped to [probFloor, probCeil], where z_base/z_cond are abilities
// inverted from the published baseline and condition accuracies, u is this
// question's retrieval utility, ū the run's mean utility (per math/no-math
// subset, supplied by the harness), and b_q the question's latent N(0,1)
// difficulty. The interpolation is linear in the ratio, so E[p] equals the
// published condition accuracy whenever E[u/ū] = 1 regardless of how
// skewed the utility distribution is — and it preserves sign for
// conditions where retrieval *hurts* (negative published deltas, e.g.
// OLMo's Astro chunk drop). With retrieval intact u≈ū and accuracy matches
// the published row; with retrieval sabotaged u→0 and the model falls back
// to baseline.
type Student struct {
	Profile *Profile

	// abilities is copy-on-write: a hit is one atomic load and a map
	// lookup, a miss takes mu, copies the (at most 15-entry) map and
	// publishes the copy.
	mu        sync.Mutex
	abilities atomic.Pointer[map[abilityKey]float64]
}

// abilityKey names one calibrated cell of a profile's accuracy tables.
type abilityKey struct {
	bench Benchmark
	math  bool
	cond  Condition
}

// probFloor/probCeil keep per-question probabilities away from the
// degenerate endpoints when an outlier utility ratio overshoots the
// interpolation (a model never answers with certainty either way).
const (
	probFloor = 0.005
	probCeil  = 0.995
)

// NewStudent wraps a profile in a responder.
func NewStudent(p *Profile) *Student {
	return &Student{Profile: p}
}

// targetsFor selects the published accuracy row for a benchmark/subset.
func (s *Student) targetsFor(bench Benchmark, math bool) Targets {
	switch bench {
	case BenchSynthetic:
		return s.Profile.Synthetic
	case BenchAstro:
		if math {
			return s.Profile.AstroMathTargets()
		}
		return s.Profile.AstroNoMath
	}
	panic("llmsim: unknown benchmark " + string(bench))
}

// ability returns the calibrated logit ability for a (bench, math subset,
// condition) cell. The inversion itself is shared process-wide
// (abilityFor); the per-student map only saves the table lookups.
func (s *Student) ability(bench Benchmark, math bool, cond Condition) (float64, bool) {
	key := abilityKey{bench, math, cond}
	if m := s.abilities.Load(); m != nil {
		if z, ok := (*m)[key]; ok {
			return z, true
		}
	}
	target, ok := s.targetsFor(bench, math)[cond]
	if !ok {
		return 0, false
	}
	z := abilityFor(target)
	s.mu.Lock()
	defer s.mu.Unlock()
	next := map[abilityKey]float64{key: z}
	if m := s.abilities.Load(); m != nil {
		for k, v := range *m {
			next[k] = v
		}
	}
	s.abilities.Store(&next)
	return z, true
}

// Supports reports whether the profile has a published row for the
// condition on this benchmark (GPT-4 is baseline-only).
func (s *Student) Supports(bench Benchmark, cond Condition) bool {
	_, ok := s.ability(bench, false, cond)
	return ok
}

// Difficulty returns the latent N(0,1) difficulty of a question, a stable
// function of its id shared by every model (as in real benchmarks, the same
// items are hard for everyone).
func Difficulty(questionID string) float64 {
	return rng.New(rng.HashString("difficulty|"+questionID)).Normal(0, 1)
}

// AnswerProb computes the probability this student answers the question
// correctly under the given condition with measured retrieval utility u and
// run-mean utility uMean.
func (s *Student) AnswerProb(q *mcq.Question, bench Benchmark, cond Condition, u, uMean float64) float64 {
	zBase, ok := s.ability(bench, q.Math, CondBaseline)
	if !ok {
		panic("llmsim: profile lacks baseline row for " + string(bench))
	}
	b := Difficulty(q.ID)
	pBase := sigmoid(zBase - b)
	if cond == CondBaseline {
		return pBase
	}
	zCond, ok := s.ability(bench, q.Math, cond)
	if !ok {
		panic(fmt.Sprintf("llmsim: %s lacks %s row for %s", s.Profile.Name, cond, bench))
	}
	ratio := 0.0
	if uMean > 0 {
		ratio = u / uMean
		if ratio < 0 {
			ratio = 0
		}
	}
	pCond := sigmoid(zCond - b)
	p := pBase + (pCond-pBase)*ratio
	if p < probFloor {
		p = probFloor
	}
	if p > probCeil {
		p = probCeil
	}
	return p
}

// Response is one simulated answer: the chosen option plus the short
// free-text reply the grading judge parses.
type Response struct {
	Choice int
	Text   string
}

// FormatReliability is the probability a model follows the requested
// "Answer: <letter>" format. Small instruction-weak models drift into
// free-form replies more often; the judge must still recover the choice
// (by quoting the option text), exactly the robustness a real LLM-judge
// grading stage provides. Correctness is unaffected — only the reply
// surface varies.
func (s *Student) FormatReliability() float64 {
	switch {
	case s.Profile.ParamsB < 2:
		return 0.80
	case s.Profile.ParamsB < 5:
		return 0.90
	default:
		return 0.97
	}
}

// Answer samples the student's response. Most replies follow the requested
// format ("Answer: <letter> — …"); a model-dependent fraction answer
// free-form, quoting the chosen option instead, which the LLM judge in
// judge.go parses by option-text matching.
func (s *Student) Answer(q *mcq.Question, bench Benchmark, cond Condition, u, uMean float64, r *rng.Source) Response {
	p := s.AnswerProb(q, bench, cond, u, uMean)
	choice := q.Answer
	if !r.Bool(p) {
		// Uniform over the wrong options.
		w := r.Intn(len(q.Options) - 1)
		if w >= q.Answer {
			w++
		}
		choice = w
	}
	var text string
	if r.Bool(s.FormatReliability()) {
		text = fmt.Sprintf("Answer: %c — %s", rune('A'+choice), shortRationale(q, choice, cond))
	} else {
		// Free-form drift: the option is quoted verbatim, no letter.
		variants := []string{
			"I believe the best choice here is %q given the mechanism involved.",
			"Considering the stem, %q fits best.",
			"The most consistent option appears to be %q.",
		}
		text = fmt.Sprintf(variants[r.Intn(len(variants))], q.Options[choice])
	}
	return Response{Choice: choice, Text: text}
}

func shortRationale(q *mcq.Question, choice int, cond Condition) string {
	opt := q.Options[choice]
	switch cond {
	case CondBaseline:
		return fmt.Sprintf("from prior knowledge, %q is the most consistent option.", opt)
	case CondChunks:
		return fmt.Sprintf("the retrieved literature excerpts support %q.", opt)
	default:
		return fmt.Sprintf("the retrieved reasoning indicates %q fits the governing principle.", opt)
	}
}
