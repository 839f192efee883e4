package rag

import (
	"context"
	"time"

	"repro/internal/vecstore"
)

// Store-agnostic serving facade: the online layer (internal/serve) fronts
// four retrieval databases — the chunk store plus the three per-mode
// trace stores — behind identical routes, the router fronts a shard fleet
// behind the same routes, and the evaluation harness retrieves through the
// same interface, so all of them speak to every store through one small
// interface instead of hard-coding *ChunkStore. Both store kinds already
// answer in Hit records, so the adapter below only forwards the batch and
// the snapshot (WithIndex) hook, keeping the hot-swap discipline of
// snapshot.go intact per store.

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
func NewChunkFacade(s *ChunkStore) Facade { return facade{&s.store} }

// NewTraceFacade adapts a TraceStore to the serving facade.
func NewTraceFacade(s *TraceStore) Facade { return facade{&s.store} }

// facade is the Facade (plus Swapper and Ingestor) over either store kind.
type facade struct{ s *store }

// RetrieveBatch never fails and ignores ctx: the store is in-process.
func (f facade) RetrieveBatch(_ context.Context, queries []string, k int, exclude []string) (Batch, error) {
	hits, st := f.s.retrieveBatch(queries, k, exclude)
	return Batch{Hits: hits, Stages: st.Stages()}, nil
}

func (f facade) WithIndex(index vecstore.Index) (Facade, error) {
	snap, err := f.s.withIndex(index)
	if err != nil {
		return nil, err
	}
	return facade{&snap}, nil
}

func (f facade) Index() vecstore.Index { return f.s.Index() }
func (f facade) Len() int              { return f.s.Len() }

// String implements fmt.Stringer for serve-side logging.
func (f facade) String() string { return f.s.describe() }
