package llmsim

import (
	"math"

	"repro/internal/corpus"
	"repro/internal/mcq"
)

// Reasoning-trace distillation by weight update — the paper's §5 future
// work ("we will explore pretraining LLMs on reasoning traces to
// systematically compare their performance"). We simulate the hypothesis
// the paper sets up: continual pretraining on the distilled trace corpus
// internalises part of the knowledge a model would otherwise need to
// retrieve, moving its *retrieval-free* accuracy toward its
// retrieval-augmented accuracy.
//
// The simulation is deliberately conservative and mechanistic:
//
//   - Coverage is measured, not assumed: the fraction of knowledge-base
//     facts that appear in the trace corpus (via each trace's source
//     question). Facts never distilled cannot be learned.
//   - Transfer efficiency grows with model capacity (log-parameters,
//     normalised to the roster), reflecting that larger students absorb
//     more from the same distillation corpus.
//   - The distilled baseline can approach but never exceed the model's
//     best retrieval-augmented accuracy — training on traces cannot beat
//     having the right trace in context.
//
// DistillOnTraces returns a new Profile; the original is unmodified.

// TransferEfficiency is the fraction of the retrieval-augmented headroom a
// maximally-covered, maximum-capacity student internalises. The value is a
// modelling assumption (no published number exists; the paper leaves this
// as future work) and is surfaced as a parameter so ablations can sweep it.
const TransferEfficiency = 0.55

// TraceCoverage measures the fraction of knowledge-base facts represented
// in the trace corpus, given the question→fact map of the benchmark the
// traces were distilled from.
func TraceCoverage(kb *corpus.KB, traces []*mcq.Trace, questionFact map[string]string) float64 {
	if kb.NumFacts() == 0 {
		return 0
	}
	covered := make(map[string]bool)
	for _, tr := range traces {
		if f := questionFact[tr.QuestionID]; f != "" {
			covered[f] = true
		}
	}
	return float64(len(covered)) / float64(kb.NumFacts())
}

// capacityFactor maps parameter count to a [0.5, 1] absorption multiplier
// across the roster's 1.1B–14B range.
func capacityFactor(paramsB float64) float64 {
	if paramsB <= 0 {
		return 0.5
	}
	lo, hi := math.Log(1.1), math.Log(14)
	x := (math.Log(paramsB) - lo) / (hi - lo)
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	return 0.5 + 0.5*x
}

// DistillOnTraces returns the profile of the student after simulated
// continual pretraining on a trace corpus with the given measured fact
// coverage ∈ [0, 1]. Each benchmark row's baseline moves toward the row's
// best retrieval-augmented value by coverage × capacity × efficiency; RAG
// rows are left unchanged (retrieval on top of a distilled model is the
// paper's follow-up question, not answered here).
func DistillOnTraces(p *Profile, coverage float64) *Profile {
	if coverage < 0 {
		coverage = 0
	}
	if coverage > 1 {
		coverage = 1
	}
	gain := coverage * capacityFactor(p.ParamsB) * TransferEfficiency
	out := *p
	out.Name = p.Name + " (trace-distilled)"
	out.Synthetic = distillRow(p.Synthetic, gain)
	out.AstroAll = distillRow(p.AstroAll, gain)
	out.AstroNoMath = distillRow(p.AstroNoMath, gain)
	return &out
}

func distillRow(t Targets, gain float64) Targets {
	if len(t) == 0 {
		return t
	}
	base, ok := t[CondBaseline]
	if !ok {
		return t
	}
	best := base
	for cond, v := range t {
		if cond != CondBaseline && v > best {
			best = v
		}
	}
	out := make(Targets, len(t))
	for cond, v := range t {
		out[cond] = v
	}
	out[CondBaseline] = base + (best-base)*gain
	return out
}

// DistillReport summarises a distillation experiment row for reporting.
type DistillReport struct {
	Model           string
	Coverage        float64
	BaselineBefore  float64
	BaselineAfter   float64
	BestRTReference float64
}

// DistillAll applies DistillOnTraces to every profile and reports the
// synthetic-benchmark movement.
func DistillAll(profiles []*Profile, coverage float64) ([]*Profile, []DistillReport) {
	out := make([]*Profile, len(profiles))
	reports := make([]DistillReport, len(profiles))
	for i, p := range profiles {
		d := DistillOnTraces(p, coverage)
		out[i] = d
		best := p.Synthetic[CondBaseline]
		for cond, v := range p.Synthetic {
			if cond != CondBaseline && v > best {
				best = v
			}
		}
		reports[i] = DistillReport{
			Model:           p.Name,
			Coverage:        coverage,
			BaselineBefore:  p.Synthetic[CondBaseline],
			BaselineAfter:   d.Synthetic[CondBaseline],
			BestRTReference: best,
		}
	}
	return out, reports
}
