package rag

import (
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/embed"
	"repro/internal/f16"
	"repro/internal/mcq"
	"repro/internal/vecstore"
)

// Hit is the one retrieval record, from the store to the wire (serve
// aliases it as serve.SearchResult). For chunk stores ID is the chunk id,
// Group its document id, and Text the chunk text; for trace stores ID is
// the trace id, Group its source-question id, and Text the reasoning
// trace.
type Hit struct {
	ID    string  `json:"id"`
	Group string  `json:"group"`
	Text  string  `json:"text,omitempty"`
	Score float32 `json:"score"`
}

// store is the retrieval core behind ChunkStore and TraceStore: an
// encoder, a vector index keyed by record id, the Hit record behind each
// key (Score unset) and the query-embedding pool. A trace store (mode
// set) over-fetches by 2 and honours per-query group exclusion; a chunk
// store (mode "") does neither.
type store struct {
	enc   *embed.Encoder
	index vecstore.Index
	byKey map[string]Hit
	// live is the chunk store's mutable metadata overlay for records
	// inserted after build (see live.go); nil until EnableLive, and shared
	// — like byKey — across WithIndex snapshots so inserts are visible
	// through every generation.
	live *liveChunks
	// pool is the query-embedding pool, built once at construction: the
	// serving hot path retrieves per micro-batch, so a fresh pool per call
	// would be one allocation per batch for no reason (Pool is stateless
	// and safe for concurrent use).
	pool *embed.Pool
	mode mcq.ReasoningMode
}

// traceOverfetch is how many extra candidates a trace store scans for, so
// that the self-exclusion filter (at most one trace per question and
// mode) still leaves k hits.
const traceOverfetch = 2

// buildStore embeds the records' texts in parallel, each straight into its
// row of one FP16 code block, and wraps the block in a Flat index keyed by
// their ids, in record order, whose first pass is derived in parallel
// blocks. A nil enc selects the default encoder; workers <= 0 selects
// GOMAXPROCS.
func buildStore(enc *embed.Encoder, records []Hit, workers int, mode mcq.ReasoningMode) store {
	if enc == nil {
		enc = embed.NewDefault()
	}
	texts := make([]string, len(records))
	keys := make([]string, len(records))
	for i, h := range records {
		texts[i], keys[i] = h.Text, h.ID
	}
	codes := make([]uint16, len(records)*enc.Dim())
	embed.NewPool(enc, workers).EncodeF16Into(codes, texts)
	return newStore(enc, vecstore.NewFlatFromCodes(enc.Dim(), codes, keys), records, mode)
}

// newStore wraps an index whose keys are the records' ids. A nil enc
// selects the default encoder.
func newStore(enc *embed.Encoder, index vecstore.Index, records []Hit, mode mcq.ReasoningMode) store {
	if enc == nil {
		enc = embed.NewDefault()
	}
	byKey := make(map[string]Hit, len(records))
	for _, h := range records {
		byKey[h.ID] = h
	}
	return store{enc: enc, index: index, byKey: byKey, pool: embed.NewPool(enc, 0), mode: mode}
}

// retrieveBatch answers many query texts at once: queries are embedded in
// parallel and searched through the index's multi-query scan kernel
// (vecstore.BatchSearchTimed), which streams the codes once for the whole
// batch. exclude is nil or one group id per query, honoured by trace
// stores only. Embed covers query encoding, Scan/Merge come from the
// index's timed kernel, and the record collect is booked under Merge — it
// is part of producing final ordered hits, not scanning.
func (s *store) retrieveBatch(queries []string, k int, exclude []string) ([][]Hit, StageTimings) {
	var st StageTimings
	embedStart := time.Now()
	vecs := s.pool.EncodeAll(queries)
	st.Embed = time.Since(embedStart)
	depth := k
	if s.mode != "" {
		depth += traceOverfetch
	}
	res, sc := vecstore.BatchSearchTimed(s.index, vecs, depth)
	st.Scan, st.Merge = sc.Scan, sc.Merge
	collectStart := time.Now()
	out := make([][]Hit, len(queries))
	for i, rs := range res {
		ex := ""
		if exclude != nil {
			ex = exclude[i]
		}
		out[i] = s.collect(rs, k, ex)
	}
	st.Merge += time.Since(collectStart)
	return out, st
}

// collect resolves up to k index results to their records, skipping a
// trace store's hits from the excluded group.
func (s *store) collect(res []vecstore.Result, k int, exclude string) []Hit {
	out := make([]Hit, 0, min(k, len(res)))
	for _, r := range res {
		if len(out) == k {
			break
		}
		h, ok := s.byKey[r.Key]
		if !ok && s.live != nil {
			h, ok = s.live.get(r.Key)
		}
		if !ok || (s.mode != "" && h.Group == exclude) {
			continue
		}
		h.Score = r.Score
		out = append(out, h)
	}
	return out
}

// UseIndex replaces the store's exact Flat index with build(flat) — for
// example flat.ToHNSW, trading recall for latency, or flat.ToIVFPQ, an
// in-memory index that SaveIndex cannot persist.
// It fails, leaving the store unchanged, when the current index is not a
// *vecstore.Flat (already swapped, or wrapped by EnableLive).
func (s *store) UseIndex(build func(*vecstore.Flat) vecstore.Index) error {
	flat, ok := s.index.(*vecstore.Flat)
	if !ok {
		return fmt.Errorf("rag: UseIndex needs a Flat-backed store, have %s", vecstore.StatsOf(s.index).Kind)
	}
	s.index = build(flat)
	return nil
}

// IndexStats reports the underlying index's storage profile (kind,
// bytes/vector), surfaced by the eval report's retrieval-config table.
func (s *store) IndexStats() vecstore.IndexStats {
	return vecstore.StatsOf(s.index)
}

// Len reports the number of stored records.
func (s *store) Len() int { return s.index.Len() }

// SaveIndex persists the underlying vector index in its family's format
// (VSF2 for Flat, VSF5 for HNSW including the whole graph). IVF-PQ and
// Live stores have no on-disk format and return an error.
func (s *store) SaveIndex(path string) error {
	saver, ok := s.index.(interface{ Save(path string) error })
	if !ok {
		return fmt.Errorf("rag: SaveIndex: a %s index has no on-disk format", vecstore.StatsOf(s.index).Kind)
	}
	return saver.Save(path)
}

// describe names the store for logging.
func (s *store) describe() string {
	if s.mode == "" {
		return fmt.Sprintf("ChunkStore(%d chunks)", s.Len())
	}
	return fmt.Sprintf("TraceStore(%s, %d traces)", s.mode, s.Len())
}

// ChunkStore is the paper-derived semantic-chunk retrieval database
// (PubMedBERT embeddings in FAISS, FP16 — here embed + vecstore).
type ChunkStore struct{ store }

func chunkHit(c chunk.Chunk) Hit { return Hit{ID: c.ID, Group: c.DocID, Text: c.Text} }

func chunkHits(chunks []chunk.Chunk) []Hit {
	out := make([]Hit, len(chunks))
	for i, c := range chunks {
		out[i] = chunkHit(c)
	}
	return out
}

// BuildChunkStore embeds all chunks in parallel and indexes them. workers
// <= 0 selects GOMAXPROCS.
func BuildChunkStore(enc *embed.Encoder, chunks []chunk.Chunk, workers int) *ChunkStore {
	return &ChunkStore{buildStore(enc, chunkHits(chunks), workers, "")}
}

// WrapChunkStore builds a ChunkStore around an already-populated index
// (e.g. one reloaded from disk) and the matching chunk records. The index
// keys must be the chunk ids.
func WrapChunkStore(enc *embed.Encoder, index vecstore.Index, chunks []chunk.Chunk) *ChunkStore {
	return &ChunkStore{newStore(enc, index, chunkHits(chunks), "")}
}

// MemoryBytes reports the FP16 embedding storage, 2·dim bytes per chunk:
// the figure the paper's 747 MB FP16 store compares with. The index's own
// footprint, derived search state included, is IndexStats().Bytes.
func (s *ChunkStore) MemoryBytes() int64 {
	return int64(s.index.Len()) * int64(f16.BytesPerVector(s.index.Dim()))
}

// Retrieve returns the top-k chunks for a query text.
func (s *ChunkStore) Retrieve(query string, k int) []Hit {
	return s.collect(s.index.Search(s.enc.Encode(query), k), k, "")
}

// RetrieveBatch answers many query texts at once through the index's
// multi-query scan kernel. Results are in query order and identical to
// per-query Retrieve calls.
func (s *ChunkStore) RetrieveBatch(queries []string, k int) [][]Hit {
	out, _ := s.retrieveBatch(queries, k, nil)
	return out
}

// RetrieveBatchStaged is RetrieveBatch plus the stage decomposition the
// serving observability reports (embed, scan, merge).
func (s *ChunkStore) RetrieveBatchStaged(queries []string, k int) ([][]Hit, StageTimings) {
	return s.retrieveBatch(queries, k, nil)
}

// TraceStore is one of the paper's three per-mode reasoning-trace retrieval
// databases.
type TraceStore struct{ store }

// traceHits lists the traces of one mode.
func traceHits(traces []*mcq.Trace, mode mcq.ReasoningMode) []Hit {
	var out []Hit
	for _, tr := range traces {
		if tr.Mode == mode {
			out = append(out, Hit{ID: tr.ID, Group: tr.QuestionID, Text: tr.Reasoning})
		}
	}
	return out
}

// BuildTraceStore indexes all traces of one mode; traces of other modes
// are ignored.
func BuildTraceStore(enc *embed.Encoder, mode mcq.ReasoningMode, traces []*mcq.Trace, workers int) *TraceStore {
	return &TraceStore{buildStore(enc, traceHits(traces, mode), workers, mode)}
}

// WrapTraceStore rebuilds a TraceStore around a persisted index and the
// matching trace records (index keys must be trace ids); traces of other
// modes are ignored.
func WrapTraceStore(enc *embed.Encoder, mode mcq.ReasoningMode, index vecstore.Index, traces []*mcq.Trace) *TraceStore {
	return &TraceStore{newStore(enc, index, traceHits(traces, mode), mode)}
}

// TraceStores builds all three mode stores at once, as the pipeline does
// after trace distillation. The third parameter is unused: a trace hit's
// Group is its source-question id, so utility grading looks the fact up
// itself (eval.Setup.Facts). It stays only because ragbench
// (benchmarks/ragbench) still passes one.
func TraceStores(enc *embed.Encoder, traces []*mcq.Trace, _ map[string]string, workers int) map[mcq.ReasoningMode]*TraceStore {
	out := make(map[mcq.ReasoningMode]*TraceStore, len(mcq.AllModes))
	for _, m := range mcq.AllModes {
		out[m] = BuildTraceStore(enc, m, traces, workers)
	}
	return out
}

// RetrieveBatch answers many query texts at once through the index's
// multi-query scan kernel. exclude is either nil (no exclusion) or one
// question id per query whose traces are suppressed.
//
// In the paper's protocol the trace database holds the teacher's reasoning
// for the very questions under evaluation (leakage is prevented by
// excluding the final answer from the trace text, not by hiding the
// trace), so the synthetic benchmark passes no exclusion. Excluding a
// query's own question is the stricter cross-question ablation (see the
// ablation benches).
func (s *TraceStore) RetrieveBatch(queries []string, k int, exclude []string) [][]Hit {
	out, _ := s.retrieveBatch(queries, k, exclude)
	return out
}

// QuestionFactMap extracts the question→fact ground-truth mapping from a
// benchmark.
func QuestionFactMap(questions []*mcq.Question) map[string]string {
	m := make(map[string]string, len(questions))
	for _, q := range questions {
		if q.Prov.FactID != "" {
			m[q.ID] = q.Prov.FactID
		}
	}
	return m
}
