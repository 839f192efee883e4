package rag

import (
	"fmt"
	"time"

	"repro/internal/vecstore"
)

// Store-agnostic serving facade: the online layer (internal/serve) fronts
// four retrieval databases — the chunk store plus the three per-mode
// trace stores — behind identical routes, so it speaks to all of them
// through one small interface instead of hard-coding *ChunkStore. The
// adapters below flatten each store's typed results into Hit records and
// forward the snapshot (WithIndex) hook, keeping the hot-swap discipline
// of snapshot.go intact per store.

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

// Facade is the retrieval interface the serving layer works against
// (internal/serve aliases it as serve.Store). Implementations must be
// safe for concurrent use and immutable at serve time, exactly like the
// stores they wrap.
type Facade interface {
	// RetrieveBatch answers queries at depth k through the store's
	// multi-query kernel and reports where the batch's time went. exclude
	// is nil or one group id per query whose hits must be suppressed (the
	// trace stores' question self-exclusion; chunk stores ignore it).
	RetrieveBatch(queries []string, k int, exclude []string) ([][]Hit, StageTimings)
	// WithIndex derives an immutable snapshot of the store serving index
	// instead of the current one (see ChunkStore.WithIndex).
	WithIndex(index vecstore.Index) (Facade, error)
	// Index exposes the current index for stats and persistence.
	Index() vecstore.Index
	// Len reports the number of stored records.
	Len() int
}

// StageTimings decomposes one RetrieveBatch into the retrieval stages the
// serving layer's observability reports: Embed is query encoding, Scan the
// index kernel's scan phase, Merge its heap merge plus the metadata
// collect. The sum can trail the whole call (slack is glue code, not a
// stage).
type StageTimings struct {
	Embed time.Duration
	Scan  time.Duration
	Merge time.Duration
}

// NewChunkFacade adapts a ChunkStore to the serving facade.
func NewChunkFacade(s *ChunkStore) Facade { return chunkFacade{s} }

// NewTraceFacade adapts a TraceStore to the serving facade.
func NewTraceFacade(s *TraceStore) Facade { return traceFacade{s} }

type chunkFacade struct{ s *ChunkStore }

func (f chunkFacade) RetrieveBatch(queries []string, k int, _ []string) ([][]Hit, StageTimings) {
	res, st := f.s.RetrieveBatchStaged(queries, k)
	out := make([][]Hit, len(res))
	for i, rcs := range res {
		hits := make([]Hit, len(rcs))
		for j, rc := range rcs {
			hits[j] = Hit{ID: rc.Chunk.ID, Group: rc.Chunk.DocID, Text: rc.Chunk.Text, Score: rc.Score}
		}
		out[i] = hits
	}
	return out, st
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

func (f traceFacade) RetrieveBatch(queries []string, k int, exclude []string) ([][]Hit, StageTimings) {
	res, st := f.s.RetrieveBatchStaged(queries, k, exclude)
	out := make([][]Hit, len(res))
	for i, rts := range res {
		hits := make([]Hit, len(rts))
		for j, rt := range rts {
			hits[j] = Hit{ID: rt.Trace.ID, Group: rt.Trace.QuestionID, Text: rt.Trace.Reasoning, Score: rt.Score}
		}
		out[i] = hits
	}
	return out, st
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
