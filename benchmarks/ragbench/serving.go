package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/vecstore"
)

// setupReps is how many times a run performs its set-up; setup_s is their
// median and the last one is the deployment the run measures.
const setupReps = 3

// options are one run's parameters.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool
	outDir   string
}

// scaled shrinks a corpus scale for -smoke.
func (o options) scaled(scale float64) float64 {
	if o.smoke {
		return scale / 20
	}
	return scale
}

func (o options) window() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// runServing runs one of the four serving workloads.
func runServing(ctx context.Context, opt options, r *runReport) error {
	var rec *recorder
	if opt.trace {
		rec = newRecorder()
	}
	var (
		st     *stack
		seq    *sequence
		setups []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if st != nil {
			st.close()
		}
		repRec := rec
		if rep < setupReps-1 {
			repRec = nil // only the kept deployment's set-up goes into the span file
		}
		start := time.Now()
		var err error
		if st, err = bringUp(ctx, opt.workload, opt.seed, opt.scaled(serveScale), repRec); err != nil {
			return err
		}
		seq = newSequence(opt.workload, opt.seed, st.in.kb)
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.close()
	r.set("setup_s", median(setups), len(setups))
	r.SequenceHash = seq.Hash()
	runtime.GC() // the discarded deployments' garbage is not part of the window

	var next atomic.Int64
	window := opt.window()
	warm := time.Duration(float64(window) * warmupShare)
	front := st.frontRegistry()
	procBefore, regBefore := readProc(), front.Snapshot()
	var plain, traced *loopResult
	if opt.trace {
		// Half the window untraced, half traced, one op sequence running
		// through both: the ratio of their throughputs is the tracing
		// overhead, measured inside one process on one deployment.
		plain = runLoop(ctx, st, seq, &next, warm, window/2, false, nil)
		regBefore = front.Snapshot()
		traced = runLoop(ctx, st, seq, &next, 0, window/2, true, rec)
	} else {
		plain = runLoop(ctx, st, seq, &next, warm, window, false, nil)
	}
	procAfter, regAfter := readProc(), front.Snapshot()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("interrupted during the load loop: %w", err)
	}

	// Correctness first: an op that answered wrongly is a failed op, and a
	// failed op counts against the percentiles below.
	phases := []*loopResult{plain}
	if traced != nil {
		phases = append(phases, traced)
	}
	if err := verifyServing(ctx, opt, r, st, phases); err != nil {
		return err
	}

	if opt.trace {
		pa, pt := summarize(plain), summarize(traced)
		r.set("obs.trace_overhead_ratio", pt.throughput/pa.throughput, pt.ops)
		recordProc(r, procBefore, procAfter, pa.ops+pt.ops)
		st.stages.record(r)
		stageLayers(r, opt.workload, traced.measured())
		registryLayers(r, opt.workload, st, regBefore, regAfter)
		queries := sampleQueries(seq, int(next.Load()))
		if err := libraryLayers(r, rec, st.stores[0], st.flats[0], queries, chunkTexts(st.in.chunks), opt.outDir); err != nil {
			return err
		}
		if err := workloadLayers(r, rec, opt, st, seq, queries); err != nil {
			return err
		}
		path, err := rec.write(opt.outDir, opt.workload, opt.seed, r.SequenceHash)
		if err != nil {
			return err
		}
		r.TraceFile = path
		return nil
	}
	p := summarize(plain)
	slices := fmt.Sprintf("median of %d slices", p.slices)
	r.setNote("throughput_per_s", p.throughput, p.ops, slices)
	r.setNote("lat_p50_ms", p.p50MS, p.ops, slices)
	r.setNote("lat_tail_ms", p.tailMS, p.ops, p.tailLabel+", "+slices)
	r.setNote("qps", p.qps, p.searches, slices)
	if opt.workload == wlIngestMixed {
		r.set("insert_p50_ms", p.add.P50MS, p.add.Samples)
		r.setNote("insert_p99_ms", p.add.TailMS, p.add.Samples, p.add.TailLabel)
	}
	return nil
}

// frontRegistry is the metrics registry of the tier the clients talk to.
func (s *stack) frontRegistry() *metrics.Registry {
	if s.router != nil {
		return s.router.Registry()
	}
	return s.servers[0].Registry()
}

// Slicing: a phase's measured ops are cut, in start order, into up to
// maxSlices runs of at least sliceOps ops — enough for each slice to carry
// its own p99 — and every figure is the median over slices, so a few
// disturbed seconds on a shared machine do not move the result.
const (
	sliceOps  = 1000
	maxSlices = 10
)

// phaseSummary is one loop phase's client-side figures.
type phaseSummary struct {
	ops        int     // measured ops, searches and adds
	searches   int     // of those, searches
	slices     int     // how many slices the medians are over
	throughput float64 // ops per second
	qps        float64 // searches per second
	p50MS      float64 // per-op latency over every op
	tailMS     float64
	tailLabel  string
	add        latencySummary // adds alone, whole window: too few to slice
}

func summarize(l *loopResult) phaseSummary {
	recs := l.measured()
	sort.Slice(recs, func(i, j int) bool { return recs[i].StartNS < recs[j].StartNS })
	p := phaseSummary{ops: len(recs), slices: min(max(len(recs)/sliceOps, 1), maxSlices)}
	if len(recs) == 0 {
		return p
	}
	// The last slice ends at the last reply, as timed, not at the nominal
	// deadline: ops in flight at the deadline complete.
	end := int64(0)
	var alat []int64
	var afail []bool
	for _, rc := range recs {
		end = max(end, rc.StartNS+rc.LatNS)
		if rc.Kind == opAdd {
			alat, afail = append(alat, rc.LatNS), append(afail, rc.Failed)
		}
	}
	p.add = summarizeLatency(alat, afail)
	p.searches = len(recs) - len(alat)
	var thr, qps, p50, tail []float64
	for k := 0; k < p.slices; k++ {
		lo, hi := k*len(recs)/p.slices, (k+1)*len(recs)/p.slices
		until := end
		if hi < len(recs) {
			until = recs[hi].StartNS
		}
		secs := max(float64(until-recs[lo].StartNS), 1) / 1e9
		lat, fail := make([]int64, 0, hi-lo), make([]bool, 0, hi-lo)
		searches := 0
		for _, rc := range recs[lo:hi] {
			lat, fail = append(lat, rc.LatNS), append(fail, rc.Failed)
			if rc.Kind == opSearch {
				searches++
			}
		}
		s := summarizeLatency(lat, fail)
		p.tailLabel = s.TailLabel
		thr, qps = append(thr, float64(hi-lo)/secs), append(qps, float64(searches)/secs)
		p50, tail = append(p50, s.P50MS), append(tail, s.TailMS)
	}
	p.throughput, p.qps, p.p50MS, p.tailMS = median(thr), median(qps), median(p50), median(tail)
	return p
}

// sampleQueries returns libQueries search queries the run actually issued.
func sampleQueries(seq *sequence, issued int) []string {
	out := make([]string, 0, libQueries)
	for i := 0; i < issued && len(out) < libQueries; i++ {
		if o := seq.At(i); o.Kind == opSearch {
			out = append(out, o.Query)
		}
	}
	return out
}

// verifyServing runs the correctness checks of a serving workload and fills
// in ops_attempted/ops_failed. It marks incorrect ops as failed in place.
func verifyServing(ctx context.Context, opt options, r *runReport, st *stack, phases []*loopResult) error {
	orc := newOracle(st.flats)
	var single *vecstore.Flat
	if opt.workload == wlRouterFanout {
		single = singleStore(st.flats)
	}
	var sampled, incorrect, unequal, degraded int
	var recallSum float64
	for _, l := range phases {
		degraded += l.Degraded
		for i := range l.Records {
			rc := &l.Records[i]
			if reply, ok := l.Sampled[rc.Index]; ok {
				recall := orc.recall(reply.Query, reply.Results)
				sampled++
				recallSum += recall
				exact := single == nil || sameHits(reply.Results, single.Search(orc.enc.Encode(reply.Query), searchK))
				if !exact {
					unequal++
				}
				if recall < 0.9 || !exact {
					incorrect++
					rc.Failed = true
				}
			}
			if rc.Failed {
				r.OpsFailed++
			}
		}
		r.OpsAttempted += len(l.Records)
	}
	mean := 0.0
	if sampled > 0 {
		mean = recallSum / float64(sampled)
	}
	r.check("oracle_recall", sampled > 0 && incorrect == 0 && mean >= 0.99,
		"%d sampled responses vs brute-force float32 oracle: mean recall@%d %.4f, %d below 0.9", sampled, searchK, mean, incorrect)
	if opt.workload == wlRouterFanout {
		r.check("router_exact_merge", unequal == 0 && degraded == 0,
			"%d of %d sampled merged id lists differ from the single-store exact ids; %d degraded responses", unequal, sampled, degraded)
	}
	if opt.workload == wlIngestMixed {
		var acked []ackedInsert
		for _, l := range phases {
			acked = append(acked, l.Acked...)
		}
		lost, err := auditInserts(ctx, st, acked)
		if err != nil {
			return err
		}
		r.OpsAttempted += len(acked)
		r.OpsFailed += lost
		r.check("acked_inserts_visible", lost == 0 && len(acked) > 0,
			"%d acked inserts audited after a forced compaction, %d lost", len(acked), lost)
		if opt.trace {
			r.set("serve.lost_inserts", float64(lost), len(acked))
		}
	}
	return nil
}

// singleStore rebuilds the unsharded exact index from the shards' vectors in
// original chunk order (chunk j lives at position j/routerShards of shard
// j%routerShards), so its tie-breaking matches an unsharded deployment.
func singleStore(shards []*vecstore.Flat) *vecstore.Flat {
	full := vecstore.NewFlat(shards[0].Dim())
	total := 0
	for _, f := range shards {
		total += f.Len()
	}
	for j := 0; j < total; j++ {
		f, pos := shards[j%len(shards)], j/len(shards)
		full.Add(f.Vector(pos), f.Key(pos))
	}
	return full
}

// sameHits reports whether a merged reply is the exact top-k: the score
// sequence must match bit for bit, and every id scoring strictly above the
// k-th score must be present. Ids tied at the cut may differ — the router
// breaks score ties by id string, a single Flat by insertion position, and
// the corpus does contain identical chunks.
func sameHits(reply []serve.SearchResult, want []vecstore.Result) bool {
	if len(reply) != len(want) || len(want) == 0 {
		return false
	}
	got := make(map[string]bool, len(reply))
	for _, hit := range reply {
		got[hit.ID] = true
	}
	cut := want[len(want)-1].Score
	for i, w := range want {
		if reply[i].Score != w.Score || (w.Score > cut && !got[w.Key]) {
			return false
		}
	}
	return true
}

// auditInserts forces the memtable down, then looks every acked insert up
// by its own text at k=1 through the batch endpoint; the deterministic
// encoder scores an exact-text match at ~1, so a lost row is a miss.
func auditInserts(ctx context.Context, st *stack, acked []ackedInsert) (lost int, err error) {
	client := serve.NewClient(st.url, nil)
	if _, err := client.CompactRoute(serve.RouteChunks); err != nil {
		return 0, fmt.Errorf("forced compaction: %w", err)
	}
	const batch = 256
	for lo := 0; lo < len(acked); lo += batch {
		part := acked[lo:min(lo+batch, len(acked))]
		queries := make([]string, len(part))
		for i, a := range part {
			queries[i] = a.Text
		}
		resp, err := client.SearchRouteBatchCtx(ctx, serve.RouteChunks, queries, 1, nil)
		if err != nil {
			return 0, fmt.Errorf("audit search: %w", err)
		}
		for i, a := range part {
			if len(resp.Results[i]) != 1 || resp.Results[i][0].ID != a.ID {
				lost++
			}
		}
	}
	return lost, nil
}

// stageLayers folds the traced ops' server timelines into per-stage
// percentiles. A stage's samples are the requests that entered it.
func stageLayers(r *runReport, workload string, recs []opRecord) {
	stage := make(map[string][]float64)
	var overhead, shardMean, shardMax []float64
	for _, rc := range recs {
		if rc.Timing == nil || rc.Failed {
			continue
		}
		st := foldTimeline(rc.Timing)
		for name, usec := range st.Stage {
			stage[name] = append(stage[name], float64(usec))
		}
		overhead = append(overhead, float64(rc.LatNS)/1e3-float64(st.TotalUS))
		if st.Shards > 0 {
			shardMean = append(shardMean, float64(st.ShardMeanUS)/1e3)
			shardMax = append(shardMax, float64(st.ShardMaxUS)/1e3)
		}
	}
	q := func(vals []float64, p float64) float64 { return quantile(sortedCopy(vals), p) }
	if workload == wlRouterFanout {
		r.set("router.queue_us_p50", q(stage["queue"], 0.5), len(stage["queue"]))
		r.set("router.scatter_us_p50", q(stage["scatter"], 0.5), len(stage["scatter"]))
		r.set("router.scatter_us_p99", q(stage["scatter"], 0.99), len(stage["scatter"]))
		r.set("router.merge_us_p50", q(stage["merge"], 0.5), len(stage["merge"]))
		r.set("router.shard_latency_ms_p50", q(shardMean, 0.5), len(shardMean))
		r.set("router.shard_latency_ms_max_p50", q(shardMax, 0.5), len(shardMax))
		return
	}
	r.set("serve.queue_us_p50", q(stage["queue"], 0.5), len(stage["queue"]))
	r.set("serve.queue_us_p99", q(stage["queue"], 0.99), len(stage["queue"]))
	r.set("serve.cache_us_p50", q(stage["cache"], 0.5), len(stage["cache"]))
	r.set("serve.embed_us_p50", q(stage["embed"], 0.5), len(stage["embed"]))
	r.set("serve.scan_us_p50", q(stage["scan"], 0.5), len(stage["scan"]))
	r.set("serve.scan_us_p99", q(stage["scan"], 0.99), len(stage["scan"]))
	r.set("serve.merge_us_p50", q(stage["merge"], 0.5), len(stage["merge"]))
	r.set("serve.http_overhead_us_p50", q(overhead, 0.5), len(overhead))
}

// registryLayers reads the counters the front tier already exposes, as
// deltas over the traced phase.
func registryLayers(r *runReport, workload string, st *stack, before, after metrics.RegistrySnapshot) {
	delta := func(name string) float64 { return float64(after.Counter(name) - before.Counter(name)) }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	if workload == wlRouterFanout {
		p := router.MetricPrefix(serve.RouteChunks)
		r.set("router.mean_batch", ratio(delta(p+"batch.queries"), delta(p+"batches")), int(delta(p+"batches")))
		r.set("router.degraded", delta(p+"degraded"), int(delta(p+"requests")))
		var retries float64
		for i := range st.servers {
			retries += delta(router.ShardMetricPrefix("shard"+strconv.Itoa(i)) + "retries")
		}
		r.set("router.shard_retries", retries, int(delta(p+"requests")))
		return
	}
	p := serve.MetricPrefix(serve.RouteChunks)
	hits, misses := delta(p+"cache.hits"), delta(p+"cache.misses")
	r.set("serve.cache_hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	r.set("serve.mean_batch", ratio(delta(p+"batch.queries"), delta(p+"batches")), int(delta(p+"batches")))
	r.set("serve.flight_shared", delta(p+"flight.shared"), int(hits+misses))
	if workload == wlIngestMixed {
		r.set("serve.compactions", delta(p+"compactions"), int(delta(p+"insert.batches")))
		r.set("serve.insert_batches", delta(p+"insert.batches"), int(delta(p+"insert.batches")))
		r.set("serve.mem_rows_end", float64(st.servers[0].Registry().Snapshot().Gauge(p+"index.memrows")), 1)
	}
}

// workloadLayers measures the layers only this workload exercises.
func workloadLayers(r *runReport, rec *recorder, opt options, st *stack, seq *sequence, queries []string) error {
	switch opt.workload {
	case wlServeMiss:
		annLayers(r, rec, st.flats[0], queries, opt.seed)
		return swapLayer(r, rec, st.servers[0], st.flats[0], opt.outDir)
	case wlServeZipf:
		return swapLayer(r, rec, st.servers[0], st.flats[0], opt.outDir)
	case wlIngestMixed:
		return ingestLayers(r, rec, st.flats[0], st.in.chunks, seq)
	case wlRouterFanout:
		return mergeLayer(r, rec, st, queries)
	}
	return nil
}
