package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Metric kinds.
const (
	kindE2E   = "end_to_end"
	kindLayer = "per_layer"
)

// metricDef names one metric. Contract metrics are the ones BENCHMARK.json
// lists: the driver requires every listed metric on every workload, so only
// metrics that are measured (and non-zero) on all five qualify. The rest are
// workload-scoped: printed and written to the -json report, with their bound
// for -compare, but not part of the driver's contract.
type metricDef struct {
	Name     string
	Unit     string
	Better   string  // "higher" or "lower"
	Bound    float64 // share of the parent's median it may worsen by; 0 = none
	Kind     string
	Contract bool
}

func e2e(name, unit, better string, bound float64, contract bool) metricDef {
	return metricDef{name, unit, better, bound, kindE2E, contract}
}

func layer(name, unit, better string, contract bool) metricDef {
	return metricDef{name, unit, better, 0, kindLayer, contract}
}

// metricDefs is the benchmark's metric table; README.md's glossary and
// BENCHMARK.json mirror it (benchjson_test.go checks the latter).
var metricDefs = []metricDef{
	// End to end, on every workload. "op" is the workload's own request:
	// one search (or add) on the serving workloads, one build+evaluate
	// iteration on mcqa_build; throughput counts searches+adds, or chunks.
	e2e("setup_s", "s", "lower", 0.25, true),
	e2e("throughput_per_s", "1/s", "higher", 0.25, true),
	e2e("lat_p50_ms", "ms", "lower", 0.25, true),
	e2e("lat_tail_ms", "ms", "lower", 0.25, true),
	// End to end, workload-scoped (the issue's names).
	e2e("build_chunks_per_s", "1/s", "higher", 0.10, false), // mcqa_build
	e2e("eval_answers_per_s", "1/s", "higher", 0.10, false), // mcqa_build
	e2e("qps", "1/s", "higher", 0.10, false),                // searches only, serving workloads
	e2e("insert_p50_ms", "ms", "lower", 0.10, false),        // ingest_mixed
	e2e("insert_p99_ms", "ms", "lower", 0.25, false),        // ingest_mixed
	e2e("fail_ratio", "ratio", "lower", 0, false),           // any increase is a regression

	// Per layer, measured on every workload: the corpus pipeline stages
	// (the serving workloads run them as set-up, mcqa_build inside the
	// stage replay), direct library calls on the workload's own queries
	// and chunk store, and the process.
	layer("corpus.generate_s", "s", "lower", true),
	layer("spdf.encode_s", "s", "lower", true),
	layer("spdf.parse_s", "s", "lower", true),
	layer("spdf.salvaged", "count", "lower", true),
	layer("spdf.failed", "count", "lower", true),
	layer("chunk.split_s", "s", "lower", true),
	layer("chunk.chunks_per_s", "1/s", "higher", true),
	layer("embed.encode_us_per_text", "us", "lower", true),
	layer("embed.encode_us_p50", "us", "lower", true),
	layer("rag.chunkstore_build_s", "s", "lower", true),
	layer("rag.retrieve_us_p50", "us", "lower", true),
	layer("rag.embed_us_per_query", "us", "lower", true),
	layer("rag.scan_us_per_query", "us", "lower", true),
	layer("rag.merge_us_per_query", "us", "lower", true),
	layer("vecstore.flat_scan_ns_per_vec", "ns", "lower", true),
	layer("vecstore.flat_batch16_ns_per_vec", "ns", "lower", true),
	layer("vecstore.bytes_per_vec", "bytes", "lower", true),
	layer("vecstore.save_s", "s", "lower", true),
	layer("vecstore.load_s", "s", "lower", true),
	layer("proc.peak_rss_mb", "MB", "lower", true),
	layer("proc.alloc_mb_per_kop", "MB", "lower", true),
	layer("proc.gc_pause_total_ms", "ms", "lower", true),
	layer("obs.trace_overhead_ratio", "ratio", "higher", true),

	// Per layer, mcqa_build only (stage replay).
	layer("pipeline.generation_s", "s", "lower", false),
	layer("argo.call_wait_ms_p50", "ms", "lower", false),
	layer("argo.call_wait_ms_p99", "ms", "lower", false),
	layer("argo.batches", "count", "lower", false),
	layer("argo.mean_batch", "count", "higher", false),
	layer("argo.retries", "count", "lower", false),
	layer("llmsim.generate_busy_s", "s", "lower", false),
	layer("llmsim.traces_s", "s", "lower", false),
	layer("mcq.accept_ratio", "ratio", "higher", false),
	layer("qc.dedup_s", "s", "lower", false),
	layer("rag.tracestore_build_s", "s", "lower", false),
	layer("eval.retrieve_s", "s", "lower", false),
	layer("eval.answer_s", "s", "lower", false),
	layer("eval.astro_s", "s", "lower", false),
	layer("mcqa.replay_over_build", "ratio", "lower", false),

	// Per layer, serving workloads (server timelines + registry deltas).
	layer("serve.queue_us_p50", "us", "lower", false),
	layer("serve.queue_us_p99", "us", "lower", false),
	layer("serve.cache_us_p50", "us", "lower", false),
	layer("serve.embed_us_p50", "us", "lower", false),
	layer("serve.scan_us_p50", "us", "lower", false),
	layer("serve.scan_us_p99", "us", "lower", false),
	layer("serve.merge_us_p50", "us", "lower", false),
	layer("serve.http_overhead_us_p50", "us", "lower", false),
	layer("serve.cache_hit_ratio", "ratio", "higher", false),
	layer("serve.mean_batch", "count", "higher", false),
	layer("serve.flight_shared", "count", "higher", false),
	layer("serve.swap_ms", "ms", "lower", false),
	// traced serve_miss only: the approximate indexes over the same corpus.
	layer("vecstore.hnsw_build_s", "s", "lower", false),
	layer("vecstore.hnsw_search_us_p50", "us", "lower", false),
	layer("vecstore.hnsw_recall_at_10", "ratio", "higher", false),
	layer("vecstore.ivfpq_build_s", "s", "lower", false),
	layer("vecstore.ivfpq_search_us_p50", "us", "lower", false),
	layer("vecstore.ivfpq_recall_at_10", "ratio", "higher", false),
	// ingest_mixed only.
	layer("vecstore.live_add_us_p50", "us", "lower", false),
	layer("rag.add_chunks_us_p50", "us", "lower", false),
	layer("serve.compactions", "count", "higher", false),
	layer("serve.insert_batches", "count", "higher", false),
	layer("serve.mem_rows_end", "count", "lower", false),
	layer("serve.lost_inserts", "count", "lower", false),
	// router_fanout only.
	layer("router.queue_us_p50", "us", "lower", false),
	layer("router.scatter_us_p50", "us", "lower", false),
	layer("router.scatter_us_p99", "us", "lower", false),
	layer("router.merge_us_p50", "us", "lower", false),
	layer("router.mean_batch", "count", "higher", false),
	layer("router.shard_latency_ms_p50", "ms", "lower", false),
	layer("router.shard_latency_ms_max_p50", "ms", "lower", false),
	layer("router.shard_retries", "count", "lower", false),
	layer("router.degraded", "count", "lower", false),
	layer("router.merge_topk_ns", "ns", "lower", false),
}

var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(metricDefs))
	for _, d := range metricDefs {
		m[d.Name] = d
	}
	return m
}()

// metricRecord is one measured metric of one run, self-describing so a
// report can be compared without the table it came from.
type metricRecord struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
	Kind    string  `json:"kind"`
	Better  string  `json:"better"`
	Bound   float64 `json:"bound,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// check is one correctness check's outcome.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runReport is everything one run of one workload measured.
type runReport struct {
	Workload     string                  `json:"workload"`
	Seed         uint64                  `json:"seed"`
	Trace        bool                    `json:"trace"`
	Seconds      float64                 `json:"seconds"`
	Smoke        bool                    `json:"smoke,omitempty"`
	SequenceHash string                  `json:"sequence_hash,omitempty"`
	Correct      bool                    `json:"correct"`
	OpsAttempted int                     `json:"ops_attempted"`
	OpsFailed    int                     `json:"ops_failed"`
	Checks       []check                 `json:"checks"`
	Metrics      map[string]metricRecord `json:"metrics"`
	TraceFile    string                  `json:"trace_file,omitempty"`
}

func newRunReport(workload string, seed uint64, trace bool, seconds float64, smoke bool) *runReport {
	return &runReport{Workload: workload, Seed: seed, Trace: trace, Seconds: seconds, Smoke: smoke,
		Correct: true, Metrics: make(map[string]metricRecord)}
}

// set records a metric; the name must be in metricDefs.
func (r *runReport) set(name string, value float64, samples int) {
	r.setNote(name, value, samples, "")
}

func (r *runReport) setNote(name string, value float64, samples int, note string) {
	d, ok := metricByName[name]
	if !ok {
		panic("ragbench: metric " + name + " is not in metricDefs")
	}
	r.Metrics[name] = metricRecord{Value: value, Unit: d.Unit, Samples: samples,
		Kind: d.Kind, Better: d.Better, Bound: d.Bound, Note: note}
}

// check records one correctness check's outcome; a failed one fails the run.
func (r *runReport) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	if !ok {
		r.Correct = false
	}
}

// finish derives fail_ratio and the overall verdict.
func (r *runReport) finish() {
	if r.OpsAttempted < 1 {
		r.check("ops_attempted", false, "no operation was attempted")
		r.OpsAttempted = 1
		r.OpsFailed = 1
	}
	if r.OpsFailed > 0 {
		r.Correct = false
	}
	if !r.Trace {
		r.set("fail_ratio", float64(r.OpsFailed)/float64(r.OpsAttempted), r.OpsAttempted)
	}
}

// print writes the human-readable report: every metric by name with its
// unit and sample count, then the checks and the failure accounting.
func (r *runReport) print(w io.Writer) {
	mode := "untraced"
	if r.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  %.1fs", r.Workload, r.Seed, mode, r.Seconds)
	if r.SequenceHash != "" {
		fmt.Fprintf(w, "  sequence %s", r.SequenceHash)
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		a, b := r.Metrics[names[i]], r.Metrics[names[j]]
		if a.Kind != b.Kind {
			return a.Kind == kindE2E
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		m := r.Metrics[n]
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", 100*m.Bound)
		}
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%-7d %s%s%s\n", n, m.Value, m.Unit, m.Samples, m.Kind, bound, note)
	}
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-28s %s\n", verdict, c.Name, c.Detail)
	}
	fmt.Fprintf(w, "  ops_attempted %d  ops_failed %d  correct %v\n", r.OpsAttempted, r.OpsFailed, r.Correct)
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.TraceFile)
	}
}

// contractLine is the driver's result line: exactly the contract metrics of
// this run's trace mode, name -> {value, unit}.
func (r *runReport) contractLine() (string, error) {
	kind := kindE2E
	if r.Trace {
		kind = kindLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.OpsAttempted, r.OpsFailed, make(map[string]mv)}
	for _, d := range metricDefs {
		if !d.Contract || d.Kind != kind {
			continue
		}
		m, ok := r.Metrics[d.Name]
		if !ok {
			return "", fmt.Errorf("contract metric %s was not measured on %s", d.Name, r.Workload)
		}
		out.Metrics[d.Name] = mv{m.Value, m.Unit}
	}
	data, err := json.Marshal(out)
	return string(data), err
}

// reportFile is the -json report: a growing set of runs. Running the
// benchmark again with the same -json path appends, which is how a set of
// repeated runs (several seeds, several repeats) is collected for -compare.
type reportFile struct {
	Runs []*runReport `json:"runs"`
}

func loadReportFile(path string) (*reportFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf reportFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// appendReport adds runs to the report at path, creating it if absent.
func appendReport(path string, runs ...*runReport) error {
	rf, err := loadReportFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			return err
		}
		rf = &reportFile{}
	}
	rf.Runs = append(rf.Runs, runs...)
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
