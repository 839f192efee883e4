package rag

import (
	"context"
	"fmt"
	"time"

	"repro/internal/vecstore"
)

// Store-agnostic serving facade: the online layer (internal/serve) fronts
// four retrieval databases — the chunk store plus the three per-mode
// trace stores — behind identical routes, and the router fronts a shard
// fleet behind the same routes, so serve speaks to all of them through
// one small interface instead of hard-coding *ChunkStore. The adapters
// below flatten each store's typed results into Hit records and forward
// the snapshot (WithIndex) hook, keeping the hot-swap discipline of
// snapshot.go intact per store.

// Hit is one store-agnostic retrieval result. For chunk stores ID is the
// chunk id, Group its document id, and Text the chunk text; for trace
// stores ID is the trace id, Group its source-question id, and Text the
// reasoning trace.
type Hit struct {
	ID    string
	Group string
	Text  string
	Score float32
}

// Facade is the search half of a served store (internal/serve aliases it
// as serve.Store). Implementations must be safe for concurrent use and
// immutable at serve time, exactly like the stores they wrap.
type Facade interface {
	// RetrieveBatch answers queries at depth k and reports where the
	// batch's time went. exclude is nil or one group id per query whose
	// hits must be suppressed (the trace stores' question self-exclusion;
	// chunk stores ignore it). ctx carries the trace of the batch's first
	// traced request (obs.FromContext), for a store that forwards it to
	// other processes. An error means no part of the store answered; a
	// store assembled from parts reports how many answered in Batch.Parts.
	RetrieveBatch(ctx context.Context, queries []string, k int, exclude []string) (Batch, error)
	// Len reports the number of stored records (0 for a store that cannot
	// see them, such as a remote shard set).
	Len() int
}

// Swapper is the optional hot-swap half of Facade: local stores implement
// it; a route over a store without it serves searches only.
type Swapper interface {
	// WithIndex derives an immutable snapshot of the store serving index
	// instead of the current one (see ChunkStore.WithIndex).
	WithIndex(index vecstore.Index) (Facade, error)
	// Index exposes the current index for stats and persistence.
	Index() vecstore.Index
}

// Batch is one RetrieveBatch answer: per-query hits in request order,
// the batch's stages in the order they ran, and, for a store assembled
// from parts, how many of them answered.
type Batch struct {
	Hits   [][]Hit
	Stages []Stage
	Parts  Parts
}

// Stage is one named, timed step of a RetrieveBatch. The serving layer
// lays a batch's stages end to end as trace spans and books each under
// its own stage histogram, so Name must come from the closed stage
// taxonomy that raglint's stagenames analyzer enforces.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Parts reports how many parts of a store answered a batch: OK of Total
// shards. The zero value is a store that is not split into parts.
type Parts struct {
	OK, Total int
}

// Partial reports whether some part of the store did not answer.
func (p Parts) Partial() bool { return p.OK < p.Total }

// StageTimings decomposes one local retrieve into the retrieval stages the
// serving layer's observability reports: Embed is query encoding, Scan the
// index kernel's scan phase, Merge its heap merge plus the metadata
// collect. The sum can trail the whole call (slack is glue code, not a
// stage).
type StageTimings struct {
	Embed time.Duration
	Scan  time.Duration
	Merge time.Duration
}

// Stages lists the timings as a Batch's ordered stages.
func (st StageTimings) Stages() []Stage {
	return []Stage{{Name: "embed", Dur: st.Embed}, {Name: "scan", Dur: st.Scan}, {Name: "merge", Dur: st.Merge}}
}

// NewChunkFacade adapts a ChunkStore to the serving facade.
func NewChunkFacade(s *ChunkStore) Facade { return chunkFacade{s} }

// NewTraceFacade adapts a TraceStore to the serving facade.
func NewTraceFacade(s *TraceStore) Facade { return traceFacade{s} }

type chunkFacade struct{ s *ChunkStore }

// RetrieveBatch never fails and ignores ctx: the store is in-process.
func (f chunkFacade) RetrieveBatch(_ context.Context, queries []string, k int, _ []string) (Batch, error) {
	res, st := f.s.RetrieveBatchStaged(queries, k)
	out := make([][]Hit, len(res))
	for i, rcs := range res {
		hits := make([]Hit, len(rcs))
		for j, rc := range rcs {
			hits[j] = Hit{ID: rc.Chunk.ID, Group: rc.Chunk.DocID, Text: rc.Chunk.Text, Score: rc.Score}
		}
		out[i] = hits
	}
	return Batch{Hits: out, Stages: st.Stages()}, nil
}

func (f chunkFacade) WithIndex(index vecstore.Index) (Facade, error) {
	s, err := f.s.WithIndex(index)
	if err != nil {
		return nil, err
	}
	return chunkFacade{s}, nil
}

func (f chunkFacade) Index() vecstore.Index { return f.s.Index() }
func (f chunkFacade) Len() int              { return f.s.Len() }

type traceFacade struct{ s *TraceStore }

// RetrieveBatch never fails and ignores ctx: the store is in-process.
func (f traceFacade) RetrieveBatch(_ context.Context, queries []string, k int, exclude []string) (Batch, error) {
	res, st := f.s.RetrieveBatchStaged(queries, k, exclude)
	out := make([][]Hit, len(res))
	for i, rts := range res {
		hits := make([]Hit, len(rts))
		for j, rt := range rts {
			hits[j] = Hit{ID: rt.Trace.ID, Group: rt.Trace.QuestionID, Text: rt.Trace.Reasoning, Score: rt.Score}
		}
		out[i] = hits
	}
	return Batch{Hits: out, Stages: st.Stages()}, nil
}

func (f traceFacade) WithIndex(index vecstore.Index) (Facade, error) {
	s, err := f.s.WithIndex(index)
	if err != nil {
		return nil, err
	}
	return traceFacade{s}, nil
}

func (f traceFacade) Index() vecstore.Index { return f.s.Index() }
func (f traceFacade) Len() int              { return f.s.Len() }

// String implements fmt.Stringer for serve-side logging.
func (f chunkFacade) String() string { return fmt.Sprintf("ChunkStore(%d chunks)", f.s.Len()) }
func (f traceFacade) String() string { return f.s.String() }
