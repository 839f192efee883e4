package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/argo"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/eval"
	"repro/internal/llmsim"
	"repro/internal/mcq"
	"repro/internal/pipeline"
	"repro/internal/qc"
	"repro/internal/rag"
	"repro/internal/rng"
	"repro/internal/vecstore"
)

// minIterations is the fewest build+evaluate iterations a full-size run
// times, however long they take.
const minIterations = 3

// iteration is one timed pass of the paper's product: build the benchmark,
// then evaluate every model under every condition on it.
type iteration struct {
	build, evaluate time.Duration
	arts            *core.Artifacts
	matrix          *eval.Matrix
	hash            string
}

func (it iteration) wall() time.Duration { return it.build + it.evaluate }

func buildConfig(opt options, scale float64) core.Config {
	cfg := core.DefaultConfig(scale)
	cfg.Seed = opt.seed
	cfg.Workers = maxProcs
	return cfg
}

func runIteration(cfg core.Config) (iteration, error) {
	var it iteration
	start := time.Now()
	a, err := core.BuildBenchmark(cfg)
	if err != nil {
		return it, fmt.Errorf("BuildBenchmark: %w", err)
	}
	it.build = time.Since(start)
	start = time.Now()
	m, err := core.EvaluateSynthetic(a)
	if err != nil {
		return it, fmt.Errorf("EvaluateSynthetic: %w", err)
	}
	it.evaluate = time.Since(start)
	it.arts, it.matrix, it.hash = a, m, artifactsHash(a, m)
	return it, nil
}

// artifactsHash digests what a build produced and what evaluating it
// answered, so two same-seed iterations can be shown identical.
func artifactsHash(a *core.Artifacts, m *eval.Matrix) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	_ = enc.Encode(a.Stats) // writes to a hash cannot fail
	for _, c := range a.Chunks {
		h.Write([]byte(c.ID))
	}
	for _, q := range a.Questions {
		_ = enc.Encode(q)
	}
	for _, t := range a.Traces {
		h.Write([]byte(t.ID))
		h.Write([]byte(t.Reasoning))
	}
	if m != nil {
		for _, row := range m.Rows {
			for _, cond := range m.Conditions {
				if c := row.Cells[cond]; c != nil {
					fmt.Fprintf(h, "%s/%s=%d/%d;", row.Model, cond, c.Correct, c.Total)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// iterateUntil runs iterations until at least floor have completed and the
// window has elapsed.
func iterateUntil(ctx context.Context, cfg core.Config, window time.Duration, floor int) ([]iteration, error) {
	var its []iteration
	start := time.Now()
	for len(its) < floor || time.Since(start) < window {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("interrupted after %d iterations: %w", len(its), err)
		}
		it, err := runIteration(cfg)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
	}
	return its, nil
}

// runMCQA runs the mcqa_build workload.
func runMCQA(ctx context.Context, opt options, r *runReport) error {
	cfg := buildConfig(opt, opt.scaled(buildScale))
	floor := minIterations
	if opt.smoke {
		floor = 1
	}

	// Set-up: warm-up builds at a tenth of the corpus, so page faults, heap
	// growth and lazy initialisation are paid before the first timed build.
	setups := make([]float64, setupReps)
	for i := range setups {
		start := time.Now()
		if _, err := core.BuildBenchmark(buildConfig(opt, cfg.Scale/10)); err != nil {
			return fmt.Errorf("warm-up build: %w", err)
		}
		setups[i] = time.Since(start).Seconds()
	}
	r.set("setup_s", median(setups), len(setups))

	window := opt.window()
	if opt.trace {
		window /= 2
	}
	procBefore := readProc()
	its, err := iterateUntil(ctx, cfg, window, floor)
	if err != nil {
		return err
	}
	first := its[0]
	chunks := float64(first.arts.Stats.Chunks)
	answers := float64(len(first.arts.Questions) * len(first.matrix.Rows) * len(first.matrix.Conditions))
	var walls, buildRates, evalRates, buildWalls []float64
	for _, it := range its {
		walls = append(walls, it.wall().Seconds()*1e3)
		buildWalls = append(buildWalls, it.build.Seconds())
		buildRates = append(buildRates, chunks/it.build.Seconds())
		evalRates = append(evalRates, answers/it.evaluate.Seconds())
	}
	checkIterations(r, its)

	if !opt.trace {
		r.setNote("throughput_per_s", chunks/(median(walls)/1e3), len(its), "chunks through build+evaluate")
		r.setNote("lat_p50_ms", median(walls), len(its), "one build+evaluate iteration")
		_, label := tailQuantile(len(its))
		r.setNote("lat_tail_ms", median(walls), len(its), label+": too few iterations for a tail percentile")
		r.set("build_chunks_per_s", median(buildRates), len(its))
		r.set("eval_answers_per_s", median(evalRates), len(its))
		return checkAstro(r, nil, first.arts)
	}

	// Traced half: the same pipeline replayed stage by stage through the
	// layers' public functions, a span round each call.
	rec := newRecorder()
	var replays []*replay
	start := time.Now()
	for len(replays) < min(floor, 2) || time.Since(start) < window {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted during the stage replay: %w", err)
		}
		rp, err := replayBuild(ctx, cfg, rec)
		if err != nil {
			return err
		}
		replays = append(replays, rp)
	}
	procAfter := readProc()
	recordReplays(r, replays, median(buildWalls))
	last := replays[len(replays)-1]
	r.check("replay_matches_build", artifactsHash(last.arts, nil) == artifactsHash(first.arts, nil),
		"stage replay produced the artifacts BuildBenchmark produced (hash %s)", artifactsHash(last.arts, nil))
	recordProc(r, procBefore, procAfter, (len(its)+len(replays))*first.arts.Stats.Chunks)
	if err := checkAstro(r, rec, last.arts); err != nil {
		return err
	}

	flat, ok := last.arts.ChunkStore.Index().(*vecstore.Flat)
	if !ok {
		return fmt.Errorf("chunk store index is %T, want *vecstore.Flat", last.arts.ChunkStore.Index())
	}
	queries := make([]string, 0, libQueries)
	for _, q := range last.arts.Questions[:min(len(last.arts.Questions), libQueries)] {
		queries = append(queries, q.Question)
	}
	if err := libraryLayers(r, rec, last.arts.ChunkStore, flat, queries, chunkTexts(last.arts.Chunks), opt.outDir); err != nil {
		return err
	}
	path, err := rec.write(opt.outDir, opt.workload, opt.seed, "")
	if err != nil {
		return err
	}
	r.TraceFile = path
	return nil
}

// checkIterations runs the build's identities on every iteration and
// counts each build and each evaluation as one attempted op.
func checkIterations(r *runReport, its []iteration) {
	identities, ordered, same := 0, 0, 0
	for _, it := range its {
		s, rep := it.arts.Stats, it.arts.ParseReport
		okIdent := rep.Total == rep.OK+rep.Salvaged+rep.Failed && rep.Total == s.Papers+s.Abstracts &&
			s.Traces == len(mcq.AllModes)*s.Accepted && s.Chunks > 0 && s.Accepted > 0
		okOrder := true
		for _, row := range it.matrix.Rows {
			if best := row.Best(); best == nil || best.Accuracy < row.Cells[llmsim.CondBaseline].Accuracy {
				okOrder = false
			}
		}
		r.OpsAttempted += 2
		if !okIdent {
			r.OpsFailed++
		} else {
			identities++
		}
		if !okOrder {
			r.OpsFailed++
		} else {
			ordered++
		}
		if it.hash == its[0].hash {
			same++
		}
	}
	s := its[0].arts.Stats
	r.check("build_identities", identities == len(its),
		"%d/%d builds: docs %d = ok %d + salvaged %d + failed %d, traces %d = 3 x accepted %d",
		identities, len(its), s.Papers+s.Abstracts, s.ParsedOK, s.ParseSalvaged, s.ParseFailed, s.Traces, s.Accepted)
	r.check("same_seed_same_hash", same == len(its) && len(its) > 0,
		"%d/%d same-seed iterations hash to %s", same, len(its), its[0].hash)
	r.check("traces_beat_baseline", ordered == len(its),
		"%d/%d evaluations: every model's best reasoning-trace condition >= its baseline", ordered, len(its))
}

// astroTolerance is the sampling allowance on the best small model's
// expert-exam accuracy. The paper's claim — small models with traces pass
// GPT-4 — is a few points wide, about one standard error of an exam this
// size, so which side a given seed lands on is chance; the check is that
// the best small model reaches GPT-4's configured baseline within two
// standard errors, which a broken trace store (accuracies fall back to the
// 0.3-0.5 baselines) cannot do.
const astroTolerance = 0.06

// checkAstro runs the expert-exam evaluation once: the all-questions matrix
// with the GPT-4 comparator row, the first half of core.EvaluateAstro (its
// no-math subset feeds no check here).
func checkAstro(r *runReport, rec *recorder, a *core.Artifacts) error {
	var all *eval.Matrix
	var err error
	d, _ := rec.timed("eval.astro", 0, func() {
		setup, _ := a.AstroSetup()
		all, err = eval.Run(setup, append(llmsim.Profiles(), llmsim.GPT4Profile()), llmsim.AllConditions)
	})
	if err != nil {
		return fmt.Errorf("Astro evaluation: %w", err)
	}
	if r.Trace {
		r.set("eval.astro_s", d.Seconds(), 1)
	}
	gpt4 := all.Row("GPT-4").Cells[llmsim.CondBaseline].Accuracy
	top, topModel := 0.0, ""
	for _, row := range all.Rows {
		if best := row.Best(); row.Model != "GPT-4" && best != nil && best.Accuracy > top {
			top, topModel = best.Accuracy, row.Model
		}
	}
	ok := top > llmsim.GPT4AstroBaseline-astroTolerance
	r.OpsAttempted++
	if !ok {
		r.OpsFailed++
	}
	r.check("slm_reaches_gpt4_on_astro", ok, "best small model with traces: %s at %.3f; GPT-4 baseline %.3f configured, %.3f measured (allowance %.2f)",
		topModel, top, llmsim.GPT4AstroBaseline, gpt4, astroTolerance)
	return nil
}

// replay is one stage-by-stage pass over the build and evaluation.
type replay struct {
	arts        *core.Artifacts
	stages      pipelineStages
	buildWall   time.Duration // sum of the stages BuildBenchmark runs
	generation  time.Duration
	callNS      []int64 // per-chunk gateway call, as the pipeline worker waited
	gateway     argo.Stats
	teacherBusy time.Duration
	traces      time.Duration
	traceStores time.Duration
	dedup       time.Duration
	acceptRatio float64
	retrieve    time.Duration
	evaluate    time.Duration
}

// replayBuild performs core.BuildBenchmark's stages one by one through the
// same public functions, then the evaluation's retrieval and the evaluation
// itself, timing each. It must stay in step with core.BuildBenchmark; the
// replay_matches_build check fails the run when it does not.
func replayBuild(ctx context.Context, cfg core.Config, rec *recorder) (*replay, error) {
	rp := &replay{}
	root, endRoot := rec.begin("replay.build", 0)
	in, stages := buildChunks(cfg.Seed, cfg.Scale, rec, root)
	rngRoot := rng.New(cfg.Seed)

	teacher := llmsim.NewTeacher(in.kb)
	var busyNS atomic.Int64
	handler := func(_ context.Context, batch []argo.Request) []argo.Response {
		start := time.Now()
		out := make([]argo.Response, len(batch))
		for i, req := range batch {
			var idx int
			if err := json.Unmarshal(req.Payload, &idx); err != nil {
				out[i] = argo.Response{ID: req.ID, Err: "bad payload: " + err.Error()}
				continue
			}
			ch := in.chunks[idx]
			src := rngRoot.SplitN("mcq", idx)
			q := teacher.GenerateMCQ(ch, in.factsOf[ch.DocID], in.pathOf[ch.DocID], src)
			q.Checks = teacher.JudgeQuality(q, src)
			data, err := json.Marshal(q)
			if err != nil {
				out[i] = argo.Response{ID: req.ID, Err: err.Error()}
				continue
			}
			out[i] = argo.Response{ID: req.ID, Payload: data}
		}
		busyNS.Add(int64(time.Since(start)))
		return out
	}
	gw := argo.NewGateway(cfg.Gateway, handler)
	defer gw.Close()
	idx := make([]int, len(in.chunks))
	for i := range idx {
		idx[i] = i
	}
	rp.callNS = make([]int64, len(idx))
	var candidates []*mcq.Question
	var genErr error
	genID, endGen := rec.begin("pipeline.generation", root)
	genStart := time.Now()
	candidates, genErr = pipeline.Map(ctx, idx, cfg.Workers, func(ctx context.Context, i int) (*mcq.Question, error) {
		payload, _ := json.Marshal(i) // an int always marshals
		callStart := time.Now()
		resp, err := gw.Call(ctx, argo.Request{ID: fmt.Sprintf("gen-%d", i), Op: "generate-mcq", Payload: payload})
		if err != nil {
			return nil, err
		}
		wait := time.Since(callStart)
		rp.callNS[i] = int64(wait)
		rec.add("argo.call", genID, i, callStart, wait)
		var q mcq.Question
		if err := json.Unmarshal(resp.Payload, &q); err != nil {
			return nil, err
		}
		return &q, nil
	})
	rp.generation = time.Since(genStart)
	endGen()
	if genErr != nil {
		return nil, fmt.Errorf("replay generation: %w", genErr)
	}
	rp.gateway = gw.Stats()
	rp.teacherBusy = time.Duration(busyNS.Load())
	accepted := mcq.FilterByQuality(candidates, cfg.QualityThreshold)
	rp.acceptRatio = float64(len(accepted)) / float64(len(candidates))

	var traceLists [][]*mcq.Trace
	var trErr error
	rp.traces, _ = rec.timed("llmsim.traces", root, func() {
		traceLists, trErr = pipeline.Map(ctx, accepted, cfg.Workers, func(_ context.Context, q *mcq.Question) ([]*mcq.Trace, error) {
			trs := teacher.GenerateTraces(q)
			for _, tr := range trs {
				if err := tr.Validate(q.AnswerText()); err != nil {
					return nil, err
				}
			}
			return trs, nil
		})
	})
	if trErr != nil {
		return nil, fmt.Errorf("replay trace distillation: %w", trErr)
	}
	var traces []*mcq.Trace
	for _, ts := range traceLists {
		traces = append(traces, ts...)
	}

	enc := embed.NewDefault()
	var chunkStore *rag.ChunkStore
	var traceStores map[mcq.ReasoningMode]*rag.TraceStore
	stages.Store, _ = rec.timed("rag.chunkstore_build", root, func() {
		chunkStore = rag.BuildChunkStore(enc, in.chunks, cfg.Workers)
	})
	rp.traceStores, _ = rec.timed("rag.tracestore_build", root, func() {
		traceStores = rag.TraceStores(enc, traces, rag.QuestionFactMap(accepted), cfg.Workers)
	})
	endRoot()
	rp.stages = stages
	rp.buildWall = stages.Generate + stages.Encode + stages.Parse + stages.Split +
		rp.generation + rp.traces + stages.Store + rp.traceStores

	rep, spec := stages.Report, corpus.FullScale.Scaled(cfg.Scale)
	rp.arts = &core.Artifacts{Config: cfg, KB: in.kb, Chunks: in.chunks, Questions: accepted, Traces: traces,
		ChunkStore: chunkStore, TraceStores: traceStores, ParseReport: rep,
		Stats: core.Stats{Papers: spec.Papers, Abstracts: spec.Abstracts,
			ParsedOK: rep.OK, ParseSalvaged: rep.Salvaged, ParseFailed: rep.Failed,
			Chunks: len(in.chunks), Candidates: len(candidates), Accepted: len(accepted),
			AcceptanceRate: rp.acceptRatio, Traces: len(traces),
			EmbeddingDim: enc.Dim(), ChunkStoreBytes: chunkStore.MemoryBytes()}}

	// Layers BuildBenchmark leaves off by default, and the evaluation.
	rp.dedup, _ = rec.timed("qc.dedup", 0, func() { qc.Dedup(accepted, enc, 0.97) })
	stems := make([]string, len(accepted))
	for i, q := range accepted {
		stems[i] = q.Question
	}
	evalID, endEval := rec.begin("replay.evaluate", 0)
	rp.retrieve, _ = rec.timed("eval.retrieve", evalID, func() {
		chunkStore.RetrieveBatch(stems, 5)
		for _, mode := range mcq.AllModes {
			traceStores[mode].RetrieveBatch(stems, 5, nil)
		}
	})
	var evalErr error
	rp.evaluate, _ = rec.timed("eval.run", evalID, func() { _, evalErr = core.EvaluateSynthetic(rp.arts) })
	endEval()
	if evalErr != nil {
		return nil, fmt.Errorf("replay EvaluateSynthetic: %w", evalErr)
	}
	return rp, nil
}

// recordReplays turns the replays into mcqa_build's per-layer metrics,
// each the median over replays. buildWall is the untraced BuildBenchmark
// median the stage sum is held against.
func recordReplays(r *runReport, replays []*replay, buildWall float64) {
	med := func(f func(*replay) float64) float64 {
		vals := make([]float64, len(replays))
		for i, rp := range replays {
			vals[i] = f(rp)
		}
		return median(vals)
	}
	dur := func(f func(*replay) time.Duration) time.Duration {
		return time.Duration(med(func(rp *replay) float64 { return float64(f(rp)) }))
	}
	sec := func(f func(*replay) time.Duration) float64 { return dur(f).Seconds() }
	last := replays[len(replays)-1]
	n := len(replays)
	stages := last.stages
	stages.Generate = dur(func(rp *replay) time.Duration { return rp.stages.Generate })
	stages.Encode = dur(func(rp *replay) time.Duration { return rp.stages.Encode })
	stages.Parse = dur(func(rp *replay) time.Duration { return rp.stages.Parse })
	stages.Split = dur(func(rp *replay) time.Duration { return rp.stages.Split })
	stages.Store = dur(func(rp *replay) time.Duration { return rp.stages.Store })
	stages.record(r)

	calls := len(last.callNS)
	r.set("pipeline.generation_s", sec(func(rp *replay) time.Duration { return rp.generation }), n)
	r.set("argo.call_wait_ms_p50", med(func(rp *replay) float64 { return quantile(sortedCopy(floatsOf(rp.callNS, 1e6)), 0.5) }), calls)
	r.set("argo.call_wait_ms_p99", med(func(rp *replay) float64 { return quantile(sortedCopy(floatsOf(rp.callNS, 1e6)), 0.99) }), calls)
	r.set("argo.batches", med(func(rp *replay) float64 { return float64(rp.gateway.Batches) }), calls)
	r.set("argo.mean_batch", med(func(rp *replay) float64 { return float64(rp.gateway.Requests) / float64(rp.gateway.Batches) }), calls)
	r.set("argo.retries", med(func(rp *replay) float64 { return float64(rp.gateway.Retries) }), calls)
	r.set("llmsim.generate_busy_s", sec(func(rp *replay) time.Duration { return rp.teacherBusy }), calls)
	r.set("llmsim.traces_s", sec(func(rp *replay) time.Duration { return rp.traces }), last.arts.Stats.Accepted)
	r.set("mcq.accept_ratio", last.acceptRatio, last.arts.Stats.Candidates)
	r.set("qc.dedup_s", sec(func(rp *replay) time.Duration { return rp.dedup }), last.arts.Stats.Accepted)
	r.set("rag.tracestore_build_s", sec(func(rp *replay) time.Duration { return rp.traceStores }), last.arts.Stats.Traces)
	r.set("eval.retrieve_s", sec(func(rp *replay) time.Duration { return rp.retrieve }), last.arts.Stats.Accepted)
	r.setNote("eval.answer_s", sec(func(rp *replay) time.Duration { return rp.evaluate - rp.retrieve }), last.arts.Stats.Accepted,
		"EvaluateSynthetic wall minus the replayed retrieval")

	replayWall := sec(func(rp *replay) time.Duration { return rp.buildWall })
	r.setNote("mcqa.replay_over_build", replayWall/buildWall, n, "stage spans summed / untraced BuildBenchmark wall")
	r.set("obs.trace_overhead_ratio", buildWall/replayWall, n)
}
