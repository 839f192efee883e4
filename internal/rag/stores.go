package rag

import (
	"fmt"
	"time"

	"repro/internal/chunk"
	"repro/internal/embed"
	"repro/internal/mcq"
	"repro/internal/vecstore"
)

// RetrievedChunk is one chunk hit with its similarity score.
type RetrievedChunk struct {
	Chunk chunk.Chunk
	Score float32
}

// ChunkStore is the paper-derived semantic-chunk retrieval database
// (PubMedBERT embeddings in FAISS, FP16 — here embed + vecstore).
type ChunkStore struct {
	enc   *embed.Encoder
	index vecstore.Index
	byKey map[string]chunk.Chunk
	// live is the mutable metadata overlay for chunks inserted after build
	// (see live.go); nil until EnableLive, and shared — like byKey — across
	// WithIndex snapshots so inserts are visible through every generation.
	live *liveChunks
	// pool is the query-embedding pool, built once at construction: the
	// serving hot path calls RetrieveBatch per micro-batch, so a fresh
	// pool per call would be one allocation per batch for no reason
	// (Pool is stateless and safe for concurrent use).
	pool *embed.Pool
}

// BuildChunkStore embeds all chunks in parallel and indexes them. workers
// <= 0 selects GOMAXPROCS.
func BuildChunkStore(enc *embed.Encoder, chunks []chunk.Chunk, workers int) *ChunkStore {
	if enc == nil {
		enc = embed.NewDefault()
	}
	texts := make([]string, len(chunks))
	for i, c := range chunks {
		texts[i] = c.Text
	}
	vecs := embed.NewPool(enc, workers).EncodeAll(texts)
	ix := vecstore.NewFlat(enc.Dim())
	byKey := make(map[string]chunk.Chunk, len(chunks))
	for i, c := range chunks {
		ix.Add(vecs[i], c.ID)
		byKey[c.ID] = c
	}
	return &ChunkStore{enc: enc, index: ix, byKey: byKey, pool: embed.NewPool(enc, 0)}
}

// WrapChunkStore builds a ChunkStore around an already-populated index
// (e.g. one reloaded from disk) and the matching chunk records. The index
// keys must be the chunk ids.
func WrapChunkStore(enc *embed.Encoder, index vecstore.Index, chunks []chunk.Chunk) *ChunkStore {
	if enc == nil {
		enc = embed.NewDefault()
	}
	byKey := make(map[string]chunk.Chunk, len(chunks))
	for _, c := range chunks {
		byKey[c.ID] = c
	}
	return &ChunkStore{enc: enc, index: index, byKey: byKey, pool: embed.NewPool(enc, 0)}
}

// UseIndex replaces the store's exact Flat index with build(flat) — for
// example flat.ToIVFPQ or ToHNSW, trading recall for latency or memory. It fails, leaving the store unchanged, when the current index
// is not a *vecstore.Flat (already swapped, or wrapped by EnableLive).
func (s *ChunkStore) UseIndex(build func(*vecstore.Flat) vecstore.Index) error {
	return useIndex(&s.index, build)
}

// useIndex is both stores' UseIndex: *index becomes build(*index), which
// must be the store's exact Flat index.
func useIndex(index *vecstore.Index, build func(*vecstore.Flat) vecstore.Index) error {
	flat, ok := (*index).(*vecstore.Flat)
	if !ok {
		return fmt.Errorf("rag: UseIndex needs a Flat-backed store, have %s", vecstore.StatsOf(*index).Kind)
	}
	*index = build(flat)
	return nil
}

// IndexStats reports the underlying index's storage profile (kind,
// bytes/vector), surfaced by the eval report's retrieval-config table.
func (s *ChunkStore) IndexStats() vecstore.IndexStats {
	return vecstore.StatsOf(s.index)
}

// Len reports the number of stored chunks.
func (s *ChunkStore) Len() int { return s.index.Len() }

// MemoryBytes reports vector storage size (the paper quotes 747 MB of FP16
// at full scale).
func (s *ChunkStore) MemoryBytes() int64 { return vecstore.StatsOf(s.index).Bytes }

// SaveIndex persists the underlying vector index in its family's format
// (VSF2 for Flat, VSF4 for IVF-PQ including residual trained state, VSF5
// for HNSW including the whole graph). Live stores have no on-disk format
// and return an error.
func (s *ChunkStore) SaveIndex(path string) error { return saveIndex(s.index, path) }

// saveIndex is both stores' SaveIndex: every family with an on-disk format
// saves itself.
func saveIndex(ix vecstore.Index, path string) error {
	saver, ok := ix.(interface{ Save(path string) error })
	if !ok {
		return fmt.Errorf("rag: SaveIndex: a %s index has no on-disk format", vecstore.StatsOf(ix).Kind)
	}
	return saver.Save(path)
}

// Retrieve returns the top-k chunks for a query text.
func (s *ChunkStore) Retrieve(query string, k int) []RetrievedChunk {
	return s.collect(s.index.Search(s.enc.Encode(query), k))
}

// RetrieveBatch answers many query texts at once: queries are embedded in
// parallel and searched through the index's multi-query scan kernel
// (Index.SearchBatch), which streams the codes once for the whole batch.
// Results are in query order and identical to per-query Retrieve calls.
func (s *ChunkStore) RetrieveBatch(queries []string, k int) [][]RetrievedChunk {
	out, _ := s.RetrieveBatchStaged(queries, k)
	return out
}

// RetrieveBatchStaged is RetrieveBatch plus the stage decomposition the
// serving observability reports: Embed covers query encoding, Scan/Merge
// come from the index's timed kernel (vecstore.BatchSearchTimed), and the
// metadata collect is booked under Merge — it is part of producing final
// ordered hits, not scanning.
func (s *ChunkStore) RetrieveBatchStaged(queries []string, k int) ([][]RetrievedChunk, StageTimings) {
	var st StageTimings
	embedStart := time.Now()
	vecs := s.pool.EncodeAll(queries)
	st.Embed = time.Since(embedStart)
	res, sc := vecstore.BatchSearchTimed(s.index, vecs, k)
	st.Scan, st.Merge = sc.Scan, sc.Merge
	collectStart := time.Now()
	out := make([][]RetrievedChunk, len(queries))
	for i, rs := range res {
		out[i] = s.collect(rs)
	}
	st.Merge += time.Since(collectStart)
	return out, st
}

func (s *ChunkStore) collect(res []vecstore.Result) []RetrievedChunk {
	out := make([]RetrievedChunk, 0, len(res))
	for _, r := range res {
		c, ok := s.byKey[r.Key]
		if !ok && s.live != nil {
			c, ok = s.live.get(r.Key)
		}
		if !ok {
			continue
		}
		out = append(out, RetrievedChunk{Chunk: c, Score: r.Score})
	}
	return out
}

// Chunk looks a chunk up by id (build-time corpus or live inserts).
func (s *ChunkStore) Chunk(id string) (chunk.Chunk, bool) {
	c, ok := s.byKey[id]
	if !ok && s.live != nil {
		c, ok = s.live.get(id)
	}
	return c, ok
}

// RetrievedTrace is one reasoning-trace hit.
type RetrievedTrace struct {
	Trace *mcq.Trace
	// FactID is the ground-truth fact of the trace's source question,
	// carried for utility measurement (never shown to students).
	FactID string
	Score  float32
}

// TraceStore is one of the paper's three per-mode reasoning-trace retrieval
// databases.
type TraceStore struct {
	mode   mcq.ReasoningMode
	enc    *embed.Encoder
	index  vecstore.Index
	byKey  map[string]*mcq.Trace
	factOf map[string]string // trace id → fact id of its source question
	pool   *embed.Pool       // query-embedding pool, hoisted like ChunkStore's
}

// BuildTraceStore indexes all traces of one mode. questionFact maps
// question id → fact id (ground truth for utility measurement); traces of
// other modes are ignored.
func BuildTraceStore(enc *embed.Encoder, mode mcq.ReasoningMode, traces []*mcq.Trace, questionFact map[string]string, workers int) *TraceStore {
	if enc == nil {
		enc = embed.NewDefault()
	}
	var mine []*mcq.Trace
	for _, tr := range traces {
		if tr.Mode == mode {
			mine = append(mine, tr)
		}
	}
	texts := make([]string, len(mine))
	for i, tr := range mine {
		texts[i] = tr.Reasoning
	}
	vecs := embed.NewPool(enc, workers).EncodeAll(texts)
	ix := vecstore.NewFlat(enc.Dim())
	byKey := make(map[string]*mcq.Trace, len(mine))
	factOf := make(map[string]string, len(mine))
	for i, tr := range mine {
		ix.Add(vecs[i], tr.ID)
		byKey[tr.ID] = tr
		factOf[tr.ID] = questionFact[tr.QuestionID]
	}
	return &TraceStore{mode: mode, enc: enc, index: ix, byKey: byKey, factOf: factOf, pool: embed.NewPool(enc, 0)}
}

// Mode returns the store's reasoning mode.
func (s *TraceStore) Mode() mcq.ReasoningMode { return s.mode }

// Len reports the number of stored traces.
func (s *TraceStore) Len() int { return s.index.Len() }

// Retrieve returns the top-k traces for a query text.
//
// In the paper's protocol the trace database holds the teacher's reasoning
// for the very questions under evaluation (leakage is prevented by
// excluding the final answer from the trace text, not by hiding the
// trace), so the synthetic benchmark passes excludeQuestionID == "".
// A non-empty excludeQuestionID suppresses traces distilled from that
// question — the stricter cross-question ablation (see the ablation
// benches), and automatic for the Astro exam whose questions were never
// distilled.
func (s *TraceStore) Retrieve(query string, k int, excludeQuestionID string) []RetrievedTrace {
	// Over-fetch to survive the self-exclusion filter.
	res := s.index.Search(s.enc.Encode(query), k+2)
	return s.collect(res, k, excludeQuestionID)
}

// RetrieveBatch answers many query texts at once through the index's
// multi-query scan kernel (see ChunkStore.RetrieveBatch). excludeQuestionIDs
// is either nil (no exclusion) or one entry per query, applying the same
// self-exclusion rule as Retrieve. Results are in query order and identical
// to per-query Retrieve calls.
func (s *TraceStore) RetrieveBatch(queries []string, k int, excludeQuestionIDs []string) [][]RetrievedTrace {
	out, _ := s.RetrieveBatchStaged(queries, k, excludeQuestionIDs)
	return out
}

// RetrieveBatchStaged is RetrieveBatch plus stage timing (see
// ChunkStore.RetrieveBatchStaged); the self-exclusion collect is booked
// under Merge.
func (s *TraceStore) RetrieveBatchStaged(queries []string, k int, excludeQuestionIDs []string) ([][]RetrievedTrace, StageTimings) {
	var st StageTimings
	embedStart := time.Now()
	vecs := s.pool.EncodeAll(queries)
	st.Embed = time.Since(embedStart)
	// Over-fetch to survive the self-exclusion filter, as in Retrieve.
	res, sc := vecstore.BatchSearchTimed(s.index, vecs, k+2)
	st.Scan, st.Merge = sc.Scan, sc.Merge
	collectStart := time.Now()
	out := make([][]RetrievedTrace, len(queries))
	for i, rs := range res {
		exclude := ""
		if excludeQuestionIDs != nil {
			exclude = excludeQuestionIDs[i]
		}
		out[i] = s.collect(rs, k, exclude)
	}
	st.Merge += time.Since(collectStart)
	return out, st
}

func (s *TraceStore) collect(res []vecstore.Result, k int, excludeQuestionID string) []RetrievedTrace {
	out := make([]RetrievedTrace, 0, k)
	for _, r := range res {
		tr, ok := s.byKey[r.Key]
		if !ok || tr.QuestionID == excludeQuestionID {
			continue
		}
		out = append(out, RetrievedTrace{Trace: tr, FactID: s.factOf[r.Key], Score: r.Score})
		if len(out) == k {
			break
		}
	}
	return out
}

// UseIndex replaces the store's exact Flat index with build(flat) (see
// ChunkStore.UseIndex).
func (s *TraceStore) UseIndex(build func(*vecstore.Flat) vecstore.Index) error {
	return useIndex(&s.index, build)
}

// IndexStats reports the underlying index's storage profile.
func (s *TraceStore) IndexStats() vecstore.IndexStats {
	return vecstore.StatsOf(s.index)
}

// SaveIndex persists the trace store's vector index (see
// ChunkStore.SaveIndex).
func (s *TraceStore) SaveIndex(path string) error { return saveIndex(s.index, path) }

// WrapTraceStore rebuilds a TraceStore around a persisted index and the
// matching trace records (index keys must be trace ids). questionFact is
// the usual ground-truth map for utility measurement.
func WrapTraceStore(enc *embed.Encoder, mode mcq.ReasoningMode, index vecstore.Index, traces []*mcq.Trace, questionFact map[string]string) *TraceStore {
	if enc == nil {
		enc = embed.NewDefault()
	}
	byKey := make(map[string]*mcq.Trace)
	factOf := make(map[string]string)
	for _, tr := range traces {
		if tr.Mode != mode {
			continue
		}
		byKey[tr.ID] = tr
		factOf[tr.ID] = questionFact[tr.QuestionID]
	}
	return &TraceStore{mode: mode, enc: enc, index: index, byKey: byKey, factOf: factOf, pool: embed.NewPool(enc, 0)}
}

// TraceStores builds all three mode stores at once, as the pipeline does
// after trace distillation.
func TraceStores(enc *embed.Encoder, traces []*mcq.Trace, questionFact map[string]string, workers int) map[mcq.ReasoningMode]*TraceStore {
	out := make(map[mcq.ReasoningMode]*TraceStore, len(mcq.AllModes))
	for _, m := range mcq.AllModes {
		out[m] = BuildTraceStore(enc, m, traces, questionFact, workers)
	}
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

// String implements fmt.Stringer for pipeline logging.
func (s *TraceStore) String() string {
	return fmt.Sprintf("TraceStore(%s, %d traces)", s.mode, s.Len())
}
