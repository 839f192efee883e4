// Package llmsim is the language-model substrate of the reproduction. It
// provides (i) a simulated teacher standing in for GPT-4.1 — chunk
// summarisation, MCQ synthesis with distractors, rubric quality judging,
// and three-mode reasoning-trace generation — and (ii) behavioural profiles
// of the paper's eight evaluated SLMs plus a GPT-4 comparator.
//
// Student models follow a logistic item-response model whose per-condition
// ability offsets are calibrated against the paper's published accuracy
// tables (the behavioural spec of each model; see DESIGN.md §4). Retrieval
// quality enters mechanistically: the evaluation harness measures, per
// question, how much answer-relevant signal retrieval actually returned,
// and the model's logit interpolates between its baseline and its
// calibrated RAG ability by that measured utility. Sabotaging the retrieval
// stack therefore collapses every RAG condition to baseline — an invariant
// the tests assert.
package llmsim

import (
	"math"
	"sync"
)

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// quadrature nodes for E_{b~N(0,1)}[f(b)]: midpoint rule over [-8, 8],
// precomputed once. 4096 nodes give ~1e-9 accuracy for the smooth logistic
// integrand, ample for three-decimal accuracy targets.
var (
	quadB []float64
	quadW []float64
)

func init() {
	const n = 4096
	const lo, hi = -8.0, 8.0
	h := (hi - lo) / n
	quadB = make([]float64, n)
	quadW = make([]float64, n)
	norm := 1 / math.Sqrt(2*math.Pi)
	var total float64
	for i := 0; i < n; i++ {
		b := lo + (float64(i)+0.5)*h
		w := norm * math.Exp(-b*b/2) * h
		quadB[i] = b
		quadW[i] = w
		total += w
	}
	// Renormalise the truncated-tail mass so weights integrate to 1.
	for i := range quadW {
		quadW[i] /= total
	}
}

// expectedAccuracy evaluates E_{b~N(0,1)}[σ(z − b)]: the population
// accuracy of a responder with ability z over a standard-normal difficulty
// distribution.
func expectedAccuracy(z float64) float64 {
	var acc float64
	for i, b := range quadB {
		acc += quadW[i] * sigmoid(z-b)
	}
	return acc
}

// solveAbility inverts expectedAccuracy by bisection: it returns z such
// that a responder with ability z scores the target accuracy on
// N(0,1)-difficulty items. Targets are clamped to (0.005, 0.995), wide
// enough for every published table value (TinyLlama's 0.089 Astro baseline
// included).
func solveAbility(target float64) float64 {
	if target < 0.005 {
		target = 0.005
	}
	if target > 0.995 {
		target = 0.995
	}
	lo, hi := -12.0, 12.0
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if expectedAccuracy(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// solved memoises solveAbility per target accuracy for the life of the
// process. The published tables hold a few dozen distinct accuracies, every
// Student built from them wants the same inversions, and one inversion is
// 80 bisection steps of a 4096-node quadrature — so each is solved once,
// not once per NewStudent per evaluation run.
var solved struct {
	sync.RWMutex
	z map[float64]float64
}

// abilityFor returns solveAbility(target) from the process-wide memo.
func abilityFor(target float64) float64 {
	solved.RLock()
	z, ok := solved.z[target]
	solved.RUnlock()
	if ok {
		return z
	}
	z = solveAbility(target) // outside the lock: concurrent first askers may both solve, to the same value
	solved.Lock()
	if solved.z == nil {
		solved.z = make(map[float64]float64)
	}
	solved.z[target] = z
	solved.Unlock()
	return z
}
