package eval

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/corpus"
	"repro/internal/llmsim"
	"repro/internal/mcq"
	"repro/internal/pipeline"
	"repro/internal/rag"
	"repro/internal/rng"
	"repro/internal/stats"
)

// Setup bundles one benchmark's questions and retrieval stores.
type Setup struct {
	KB        *corpus.KB
	Questions []*mcq.Question
	// Chunks is the chunk store and Traces holds one store per trace mode,
	// each behind the retrieval facade: an in-process store
	// (rag.NewChunkFacade, rag.NewTraceFacade) or a remote one, such as a
	// router's shard set.
	Chunks rag.Facade
	Traces map[mcq.ReasoningMode]rag.Facade
	// Facts maps each distilled question's id to its fact
	// (rag.QuestionFactMap): a trace hit's Group is its source question,
	// so trace utility grades Facts[hit.Group].
	Facts map[string]string
	Bench llmsim.Benchmark
	// K is the retrieval depth (top-k), default 5.
	K int
	// SelfExcludeTraces enables the stricter cross-question ablation in
	// which a question may not retrieve its own distilled trace. The
	// paper's protocol (and the default) is false; Astro questions have no
	// own traces so the flag is moot there.
	SelfExcludeTraces bool
	// Seed drives answer sampling; fixed seed → bit-identical tables.
	Seed uint64
	// Workers bounds parallelism (<=0 → GOMAXPROCS): the prompt planning
	// and grading of each condition's retrieval, and the (model,
	// condition) cells evaluated at once. Results do not depend on it.
	Workers int
}

func (s *Setup) k() int {
	if s.K <= 0 {
		return 5
	}
	return s.K
}

// retrieved caches one question's retrieval results for one condition so
// the expensive similarity searches, the token counts of the prompt the
// results go into and the relevance grades of the hits are taken once, not
// once per model.
type retrieved struct {
	// plan is nil under the baseline condition, which retrieves nothing
	// and whose utility is 0 whatever the window.
	plan *rag.PromptPlan
	hits []rag.Hit
	// grades holds each hit's relevance (rag.Grades), in hit order.
	grades []float64
}

// retrieveAll performs the retrieval for a condition across all questions
// at once, preserving question order. The whole question set goes through
// one Facade.RetrieveBatch (embedding fan-out + the vecstore multi-query
// scan in-process): the questions are packed and quantized once as one
// query batch, each tile of rows is scored against every question while it
// sits in cache by the int8 first pass, and each question's surviving
// candidates are rescored exactly in FP16, so the hits are the exact scan's.
// Each question's prompt is then planned (rag.PlanPrompt) — the part of
// prompt assembly that does not depend on a model's window — and its hits
// graded (rag.Grades), which depends on no model at all.
func (s *Setup) retrieveAll(cond llmsim.Condition) ([]retrieved, error) {
	out := make([]retrieved, len(s.Questions))
	if cond == llmsim.CondBaseline {
		return out, nil
	}
	store, err := s.store(cond)
	if err != nil {
		return nil, err
	}
	queries := make([]string, len(s.Questions))
	for i, q := range s.Questions {
		queries[i] = q.Question
	}
	var excludes []string
	if s.SelfExcludeTraces && cond != llmsim.CondChunks {
		excludes = make([]string, len(s.Questions))
		for i, q := range s.Questions {
			excludes[i] = q.ID
		}
	}
	b, err := store.RetrieveBatch(context.Background(), queries, s.k(), excludes)
	if err != nil {
		return nil, fmt.Errorf("eval: %s retrieval: %w", cond, err)
	}
	for i, hits := range b.Hits {
		out[i].hits = hits
	}
	mode := traceMode(cond)
	return out, pipeline.ForEach(context.Background(), indexRange(len(out)), s.Workers,
		func(_ context.Context, i int) error {
			q := s.Questions[i]
			texts := make([]string, len(out[i].hits))
			for j, h := range out[i].hits {
				texts[j] = h.Text
			}
			out[i].plan = rag.PlanPrompt(q, texts)
			out[i].grades = rag.Grades(s.KB, q, mode, s.Facts, out[i].hits)
			return nil
		})
}

// store returns the store a retrieval condition reads.
func (s *Setup) store(cond llmsim.Condition) (rag.Facade, error) {
	if cond == llmsim.CondChunks {
		if s.Chunks == nil {
			return nil, fmt.Errorf("eval: no chunk store for %s", cond)
		}
		return s.Chunks, nil
	}
	mode := traceMode(cond)
	if mode == "" {
		return nil, fmt.Errorf("eval: condition %s retrieves from no store", cond)
	}
	if s.Traces[mode] == nil {
		return nil, fmt.Errorf("eval: no trace store for mode %s", mode)
	}
	return s.Traces[mode], nil
}

// traceMode is a trace condition's reasoning mode, "" for any other.
func traceMode(c llmsim.Condition) mcq.ReasoningMode {
	switch c {
	case llmsim.CondRTDetail:
		return mcq.ModeDetailed
	case llmsim.CondRTFocused:
		return mcq.ModeFocused
	case llmsim.CondRTEfficient:
		return mcq.ModeEfficient
	}
	return ""
}

// Cell is one (model, condition) result.
type Cell struct {
	Model       string
	Condition   llmsim.Condition
	Correct     int
	Total       int
	Accuracy    float64
	CI          stats.Interval
	MeanUtility float64
	// Unparseable counts replies the judge could not map to an option
	// (graded incorrect, as in real harnesses).
	Unparseable int
	// ByTopic breaks correctness down per sub-domain label (the paper's
	// §5 plan: "benchmarks … organized by sub-domain"). Questions without
	// a topic aggregate under "".
	ByTopic map[string]*TopicCount
}

// TopicCount is one sub-domain's tally within a cell.
type TopicCount struct {
	Correct int
	Total   int
}

// Accuracy returns the tally's accuracy (0 when empty).
func (tc *TopicCount) Accuracy() float64 {
	if tc.Total == 0 {
		return 0
	}
	return float64(tc.Correct) / float64(tc.Total)
}

// Row collects one model's cells.
type Row struct {
	Model string
	Cells map[llmsim.Condition]*Cell
}

// Best returns the best reasoning-trace cell of the row (the paper's Astro
// tables report "RAG-RTs (best)").
func (r *Row) Best(conds ...llmsim.Condition) *Cell {
	if len(conds) == 0 {
		conds = []llmsim.Condition{llmsim.CondRTDetail, llmsim.CondRTFocused, llmsim.CondRTEfficient}
	}
	var best *Cell
	for _, c := range conds {
		cell, ok := r.Cells[c]
		if !ok {
			continue
		}
		if best == nil || cell.Accuracy > best.Accuracy {
			best = cell
		}
	}
	return best
}

// Matrix is the full evaluation result for one benchmark.
type Matrix struct {
	Bench      llmsim.Benchmark
	Conditions []llmsim.Condition
	Rows       []*Row
}

// Row returns the named model's row, or nil.
func (m *Matrix) Row(model string) *Row {
	for _, r := range m.Rows {
		if r.Model == model {
			return r
		}
	}
	return nil
}

// cellTask is one (model, condition) cell of a matrix, with everything it
// reads: the model's student, the condition's shared retrieval and the
// cell's own answer stream.
type cellTask struct {
	row     *Row
	student *llmsim.Student
	cond    llmsim.Condition
	ret     []retrieved
	r       *rng.Source
}

// Run evaluates the given profiles under the given conditions. Retrieval is
// performed once per condition and shared across models; each model sees
// retrieval through its own context window (truncation drops low-ranked
// items), and its response probability is driven by the measured utility
// (DESIGN.md §4). The cells run in parallel on setup.Workers: each draws
// its answers from its own stream, split from the seed by model and
// condition, so the matrix does not depend on the schedule.
func Run(setup *Setup, profiles []*llmsim.Profile, conditions []llmsim.Condition) (*Matrix, error) {
	if len(setup.Questions) == 0 {
		return nil, fmt.Errorf("eval: no questions")
	}
	matrix := &Matrix{Bench: setup.Bench, Conditions: conditions}
	judge := llmsim.NewJudge()
	root := rng.New(setup.Seed)

	// Retrieval per condition, shared by all models.
	cache := make(map[llmsim.Condition][]retrieved, len(conditions))
	for _, cond := range conditions {
		r, err := setup.retrieveAll(cond)
		if err != nil {
			return nil, err
		}
		cache[cond] = r
	}

	var tasks []cellTask
	for _, prof := range profiles {
		student := llmsim.NewStudent(prof)
		row := &Row{Model: prof.Name, Cells: make(map[llmsim.Condition]*Cell)}
		matrix.Rows = append(matrix.Rows, row)
		for _, cond := range conditions {
			if !student.Supports(setup.Bench, cond) {
				continue
			}
			tasks = append(tasks, cellTask{row, student, cond, cache[cond], root.Split(prof.Name + "|" + string(cond))})
		}
	}
	cells, err := pipeline.Map(context.Background(), tasks, setup.Workers,
		func(_ context.Context, t cellTask) (*Cell, error) {
			return runCell(setup, t.student, judge, t.cond, t.ret, t.r), nil
		})
	if err != nil {
		// Cells return no errors, so a failure is a panic: name the first
		// failing cell in table order.
		var me *pipeline.MapError
		if errors.As(err, &me) {
			for i, t := range tasks {
				if e := me.Failures[i]; e != nil {
					return nil, fmt.Errorf("eval: %s/%s: %w", t.row.Model, t.cond, e)
				}
			}
		}
		return nil, err
	}
	for i, t := range tasks {
		t.row.Cells[t.cond] = cells[i]
	}
	return matrix, nil
}

// runCell evaluates one model under one condition.
func runCell(setup *Setup, student *llmsim.Student, judge *llmsim.Judge,
	cond llmsim.Condition, ret []retrieved, r *rng.Source) *Cell {

	window := student.Profile.ContextWindow
	// Pass 1: fit each question's shared prompt plan to this model's
	// window and weigh the shared grades of what survived. The baseline
	// retrieves nothing: its utilities stay 0.
	utilities := make([]float64, len(setup.Questions))
	if cond != llmsim.CondBaseline {
		mode := traceMode(cond)
		for i := range setup.Questions {
			fit := ret[i].plan.Fit(window)
			utilities[i] = rag.UtilityOf(ret[i].grades, mode, fit.Retained)
		}
	}
	// Mean utility per math/no-math subset: the calibrated response rows
	// differ by subset, so each must be normalised against its own mean
	// (a shared mean would leak one subset's utility distribution into the
	// other's response curve).
	var uSum, uSumMath, uSumPlain float64
	var nMath, nPlain int
	for i, u := range utilities {
		uSum += u
		if setup.Questions[i].Math {
			uSumMath += u
			nMath++
		} else {
			uSumPlain += u
			nPlain++
		}
	}
	uMean := uSum / float64(len(utilities))
	uMeanMath, uMeanPlain := uMean, uMean
	if nMath > 0 {
		uMeanMath = uSumMath / float64(nMath)
	}
	if nPlain > 0 {
		uMeanPlain = uSumPlain / float64(nPlain)
	}

	// Pass 2: answer and grade. The cell's own sequential stream keeps
	// runs reproducible.
	cell := &Cell{
		Model: student.Profile.Name, Condition: cond,
		Total: len(setup.Questions), ByTopic: make(map[string]*TopicCount),
	}
	cell.MeanUtility = uMean
	for i, q := range setup.Questions {
		m := uMeanPlain
		if q.Math {
			m = uMeanMath
		}
		resp := student.Answer(q, setup.Bench, cond, utilities[i], m, r)
		grade := judge.GradeResponse(q, resp.Text)
		if grade.ParsedChoice < 0 {
			cell.Unparseable++
		}
		tc := cell.ByTopic[q.Topic]
		if tc == nil {
			tc = &TopicCount{}
			cell.ByTopic[q.Topic] = tc
		}
		tc.Total++
		if grade.Correct {
			cell.Correct++
			tc.Correct++
		}
	}
	cell.Accuracy = float64(cell.Correct) / float64(cell.Total)
	cell.CI = stats.WilsonCI(cell.Correct, cell.Total)
	return cell
}

func indexRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// FilterQuestions returns the subset of a matrix-compatible question list
// selected by keep.
func FilterQuestions(qs []*mcq.Question, keep func(*mcq.Question) bool) []*mcq.Question {
	var out []*mcq.Question
	for _, q := range qs {
		if keep(q) {
			out = append(out, q)
		}
	}
	return out
}

// SortedConditions returns the matrix's conditions in canonical table
// order.
func SortedConditions(conds []llmsim.Condition) []llmsim.Condition {
	order := map[llmsim.Condition]int{
		llmsim.CondBaseline: 0, llmsim.CondChunks: 1,
		llmsim.CondRTDetail: 2, llmsim.CondRTFocused: 3, llmsim.CondRTEfficient: 4,
	}
	out := append([]llmsim.Condition(nil), conds...)
	sort.Slice(out, func(i, j int) bool { return order[out[i]] < order[out[j]] })
	return out
}
