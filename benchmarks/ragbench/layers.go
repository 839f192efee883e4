package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/chunk"
	"repro/internal/embed"
	"repro/internal/rag"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/vecstore"
)

const (
	libQueries   = 256 // queries each direct library call is repeated over
	libBatch     = 16
	libEmbedText = 512 // chunk texts timed through the encoder
)

// procStats samples the process counters the proc.* metrics are deltas of.
type procStats struct {
	totalAlloc uint64
	pauseNS    uint64
}

func readProc() procStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{ms.TotalAlloc, ms.PauseTotalNs}
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// recordProc sets the proc.* metrics from the counters before and after
// the measured phase and the number of ops it ran.
func recordProc(r *runReport, before, after procStats, ops int) {
	r.set("proc.peak_rss_mb", peakRSSMB(), 1)
	r.set("proc.alloc_mb_per_kop", float64(after.totalAlloc-before.totalAlloc)/(1<<20)/(float64(ops)/1000), ops)
	r.set("proc.gc_pause_total_ms", float64(after.pauseNS-before.pauseNS)/1e6, ops)
}

// libraryLayers times the layers under the serving path by calling their
// public functions directly, on the workload's own queries and chunk store:
// the encoder, rag retrieval (whole and staged), the Flat scan kernels
// single and batched, and index save/load. Every call gets a span.
func libraryLayers(r *runReport, rec *recorder, store *rag.ChunkStore, flat *vecstore.Flat, queries, texts []string, outDir string) error {
	enc := embed.NewDefault()
	queries = queries[:min(len(queries), libQueries)]

	d, _ := rec.timed("embed.encode_texts", 0, func() {
		for _, t := range texts {
			enc.Encode(t)
		}
	})
	r.set("embed.encode_us_per_text", us(d)/float64(len(texts)), len(texts))

	qvecs := make([][]float32, len(queries))
	encNS := make([]int64, len(queries))
	rec.timed("embed.encode_queries", 0, func() {
		for i, q := range queries {
			t := time.Now()
			qvecs[i] = enc.Encode(q)
			encNS[i] = int64(time.Since(t))
		}
	})
	r.set("embed.encode_us_p50", median(floatsOf(encNS, 1e3)), len(encNS))

	retNS := make([]int64, len(queries))
	rec.timed("rag.retrieve", 0, func() {
		for i, q := range queries {
			t := time.Now()
			store.Retrieve(q, searchK)
			retNS[i] = int64(time.Since(t))
		}
	})
	r.set("rag.retrieve_us_p50", median(floatsOf(retNS, 1e3)), len(retNS))

	var staged rag.StageTimings
	rec.timed("rag.retrieve_batch_staged", 0, func() {
		for lo := 0; lo < len(queries); lo += libBatch {
			_, st := store.RetrieveBatchStaged(queries[lo:min(lo+libBatch, len(queries))], searchK)
			staged.Embed += st.Embed
			staged.Scan += st.Scan
			staged.Merge += st.Merge
		}
	})
	n := float64(len(queries))
	r.set("rag.embed_us_per_query", us(staged.Embed)/n, len(queries))
	r.set("rag.scan_us_per_query", us(staged.Scan)/n, len(queries))
	r.set("rag.merge_us_per_query", us(staged.Merge)/n, len(queries))

	scanned := float64(len(qvecs)) * float64(flat.Len())
	d, _ = rec.timed("vecstore.flat_search", 0, func() {
		dst := make([]vecstore.Result, 0, searchK)
		for _, q := range qvecs {
			dst = flat.SearchInto(q, searchK, dst[:0])
		}
	})
	r.set("vecstore.flat_scan_ns_per_vec", float64(d.Nanoseconds())/scanned, len(qvecs))
	d, _ = rec.timed("vecstore.flat_search_batch16", 0, func() {
		for lo := 0; lo < len(qvecs); lo += libBatch {
			flat.SearchBatch(qvecs[lo:min(lo+libBatch, len(qvecs))], searchK)
		}
	})
	r.set("vecstore.flat_batch16_ns_per_vec", float64(d.Nanoseconds())/scanned, len(qvecs))
	r.set("vecstore.bytes_per_vec", vecstore.StatsOf(flat).BytesPerVector(), flat.Len())

	tmp, err := scratchDir(outDir, "vsf-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	path := filepath.Join(tmp, "chunks.vsf")
	var ioErr error
	d, _ = rec.timed("vecstore.save", 0, func() { ioErr = flat.Save(path) })
	if ioErr != nil {
		return fmt.Errorf("save index: %w", ioErr)
	}
	r.set("vecstore.save_s", d.Seconds(), flat.Len())
	var loaded *vecstore.Flat
	d, _ = rec.timed("vecstore.load", 0, func() { loaded, ioErr = vecstore.LoadFlat(path) })
	if ioErr != nil {
		return fmt.Errorf("load index: %w", ioErr)
	}
	r.set("vecstore.load_s", d.Seconds(), flat.Len())
	r.check("vsf_roundtrip", loaded.Len() == flat.Len() && sameTop(loaded, flat, qvecs[0]),
		"saved and reloaded %d vectors, top-%d of one query identical", loaded.Len(), searchK)
	return nil
}

// chunkTexts returns the texts of the first libEmbedText chunks.
func chunkTexts(chunks []chunk.Chunk) []string {
	texts := make([]string, 0, libEmbedText)
	for _, c := range chunks[:min(len(chunks), libEmbedText)] {
		texts = append(texts, c.Text)
	}
	return texts
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// scratchDir makes a temporary directory under the output directory; the
// caller removes it.
func scratchDir(outDir, pattern string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", fmt.Errorf("output dir: %w", err)
	}
	tmp, err := os.MkdirTemp(outDir, pattern)
	if err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return tmp, nil
}

func sameTop(a, b *vecstore.Flat, q []float32) bool {
	ra, rb := a.Search(q, searchK), b.Search(q, searchK)
	if len(ra) != len(rb) {
		return false
	}
	for i := range ra {
		if ra[i].Key != rb[i].Key || ra[i].Score != rb[i].Score {
			return false
		}
	}
	return true
}

// swapLayer times a hot swap of the chunks route from a saved index.
func swapLayer(r *runReport, rec *recorder, srv *serve.Server, flat *vecstore.Flat, outDir string) error {
	tmp, err := scratchDir(outDir, "swap-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	path := filepath.Join(tmp, "chunks.vsf")
	if err := flat.Save(path); err != nil {
		return fmt.Errorf("save index for swap: %w", err)
	}
	var swapErr error
	d, _ := rec.timed("serve.swap", 0, func() { _, swapErr = srv.SwapFromFile(path) })
	if swapErr != nil {
		return fmt.Errorf("hot swap: %w", swapErr)
	}
	r.set("serve.swap_ms", float64(d.Nanoseconds())/1e6, 1)
	return nil
}

// annLayers builds the two approximate indexes over the same corpus and
// measures what each costs to build, how fast it searches, and what recall
// it gives up against the exact Flat scan (traced serve_miss only).
func annLayers(r *runReport, rec *recorder, flat *vecstore.Flat, queries []string, seed uint64) {
	enc := embed.NewDefault()
	queries = queries[:min(len(queries), libQueries)]
	qvecs := make([][]float32, len(queries))
	for i, q := range queries {
		qvecs[i] = enc.Encode(q)
	}
	searchP50 := func(name string, ix vecstore.Index) float64 {
		ns := make([]int64, len(qvecs))
		rec.timed(name, 0, func() {
			for i, q := range qvecs {
				t := time.Now()
				ix.Search(q, searchK)
				ns[i] = int64(time.Since(t))
			}
		})
		return median(floatsOf(ns, 1e3))
	}
	var h *vecstore.HNSW
	d, _ := rec.timed("vecstore.hnsw_build", 0, func() { h = flat.ToHNSW(vecstore.HNSWConfig{Seed: seed}) })
	r.set("vecstore.hnsw_build_s", d.Seconds(), flat.Len())
	r.set("vecstore.hnsw_search_us_p50", searchP50("vecstore.hnsw_search", h), len(qvecs))
	r.set("vecstore.hnsw_recall_at_10", h.RecallAgainst(flat, qvecs, searchK), len(qvecs))

	var pq *vecstore.IVFPQ
	d, _ = rec.timed("vecstore.ivfpq_build", 0, func() {
		pq = flat.ToIVFPQ(vecstore.IVFPQConfig{Seed: seed, Residual: true})
	})
	r.set("vecstore.ivfpq_build_s", d.Seconds(), flat.Len())
	r.set("vecstore.ivfpq_search_us_p50", searchP50("vecstore.ivfpq_search", pq), len(qvecs))
	originals := make([][]float32, flat.Len())
	for i := range originals {
		originals[i] = flat.Vector(i)
	}
	r.set("vecstore.ivfpq_recall_at_10", pq.Recall(originals, qvecs, searchK), len(qvecs))
}

// ingestLayers times the write path's two library layers on scratch copies
// that share the workload's base index: vecstore.Live.Add of one embedded
// vector, and rag.ChunkStore.AddChunks of one chunk (embed + add).
func ingestLayers(r *runReport, rec *recorder, flat *vecstore.Flat, chunks []chunk.Chunk, seq *sequence) error {
	enc := embed.NewDefault()
	live := vecstore.NewLive(flat, nil)
	addNS := make([]int64, libQueries)
	rec.timed("vecstore.live_add", 0, func() {
		for i := range addNS {
			v := enc.Encode(seq.salted(seq.sentences[i%len(seq.sentences)], "probe", i))
			t := time.Now()
			live.Add(v, "probe-live-"+strconv.Itoa(i))
			addNS[i] = int64(time.Since(t))
		}
	})
	r.set("vecstore.live_add_us_p50", median(floatsOf(addNS, 1e3)), len(addNS))

	store := rag.WrapChunkStore(nil, flat, chunks)
	store.EnableLive()
	var addErr error
	rec.timed("rag.add_chunks", 0, func() {
		for i := range addNS {
			c := chunk.Chunk{ID: "probe-rag-" + strconv.Itoa(i), DocID: "probe",
				Text: seq.salted(seq.sentences[i%len(seq.sentences)], "probe", i)}
			t := time.Now()
			if _, err := store.AddChunks([]chunk.Chunk{c}); err != nil {
				addErr = err
			}
			addNS[i] = int64(time.Since(t))
		}
	})
	if addErr != nil {
		return fmt.Errorf("rag.AddChunks probe: %w", addErr)
	}
	r.set("rag.add_chunks_us_p50", median(floatsOf(addNS, 1e3)), len(addNS))
	return nil
}

// mergeLayer times router.MergeTopK on real per-shard result lists.
func mergeLayer(r *runReport, rec *recorder, s *stack, queries []string) error {
	queries = queries[:min(len(queries), 32)]
	lists := make([][][]serve.SearchResult, len(queries))
	for i, q := range queries {
		for _, srv := range s.servers {
			resp, err := serve.NewClient("http://"+srv.Addr(), nil).SearchRoute(serve.RouteChunks, q, searchK, "")
			if err != nil {
				return fmt.Errorf("shard search for merge probe: %w", err)
			}
			lists[i] = append(lists[i], resp.Results)
		}
	}
	const rounds = 200
	d, _ := rec.timed("router.merge_topk", 0, func() {
		for n := 0; n < rounds; n++ {
			for _, l := range lists {
				router.MergeTopK(l, searchK)
			}
		}
	})
	r.set("router.merge_topk_ns", float64(d.Nanoseconds())/float64(rounds*len(lists)), rounds*len(lists))
	return nil
}
