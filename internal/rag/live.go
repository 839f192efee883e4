package rag

import (
	"fmt"
	"sync"

	"repro/internal/chunk"
	"repro/internal/vecstore"
)

// Live ingestion support for the chunk store: once EnableLive wraps the
// serving index in a vecstore.Live mutable layer, AddChunks embeds and
// inserts new chunks while searches proceed. The Hit records of inserted
// rows live in a small overlay map shared by every WithIndex snapshot —
// the immutable build-time byKey map stays lock-free on the hot read path,
// and the overlay (consulted only on a byKey miss) takes an RLock.
//
// Ordering discipline: metadata is registered in the overlay BEFORE the
// vector lands in the memtable, so the instant a row becomes searchable
// its key resolves in collect. (The reverse order would drop fresh hits.)

// Ingestor is the optional write-path extension of Facade: stores that
// accept live inserts implement it (a facade over a live-enabled
// ChunkStore; over any other store AddChunks fails). The serving layer
// type-asserts for it on its add endpoint.
type Ingestor interface {
	// AddChunks embeds and inserts chunks, returning how many were added.
	// It is safe to call concurrently with RetrieveBatch; the serving
	// layer additionally serialises it against compaction publishes.
	AddChunks(chunks []chunk.Chunk) (int, error)
}

// liveChunks is the mutable metadata overlay shared across snapshots.
type liveChunks struct {
	mu    sync.RWMutex
	byKey map[string]Hit
}

func (l *liveChunks) get(key string) (Hit, bool) {
	l.mu.RLock()
	c, ok := l.byKey[key]
	l.mu.RUnlock()
	return c, ok
}

func (l *liveChunks) has(key string) bool {
	_, ok := l.get(key)
	return ok
}

// EnableLive wraps the store's Flat index in a vecstore.Live mutable layer
// so AddChunks works, and allocates the shared metadata overlay. Call
// before serving; it is not safe concurrently with searches. No-op if the
// store is already live; a store over any other index fails unchanged.
func (s *ChunkStore) EnableLive() error {
	switch ix := s.index.(type) {
	case *vecstore.Flat:
		s.index = vecstore.NewLive(ix, nil)
	case *vecstore.Live:
	default:
		return fmt.Errorf("rag: EnableLive needs a Flat-backed store, have %s", vecstore.StatsOf(ix).Kind)
	}
	if s.live == nil {
		s.live = &liveChunks{byKey: make(map[string]Hit)}
	}
	return nil
}

// AddChunks embeds and inserts chunks into the live index. Every chunk
// must have a non-empty id and text, and an id not already stored (base
// corpus or previously inserted). On error nothing is inserted. Safe to
// call concurrently with RetrieveBatch; concurrent AddChunks calls are
// themselves safe but the serving layer serialises them anyway (one write
// lock per route) to coordinate with compaction.
func (s *ChunkStore) AddChunks(chunks []chunk.Chunk) (int, error) { return s.addChunks(chunks) }

// addChunks is AddChunks on the shared core, so a facade can forward it.
func (s *store) addChunks(chunks []chunk.Chunk) (int, error) {
	live, ok := s.index.(*vecstore.Live)
	if !ok || s.live == nil {
		return 0, fmt.Errorf("rag: AddChunks on a store without a live index (EnableLive first)")
	}
	if len(chunks) == 0 {
		return 0, fmt.Errorf("rag: AddChunks with no chunks")
	}
	texts := make([]string, len(chunks))
	seen := make(map[string]bool, len(chunks))
	for i, c := range chunks {
		if c.ID == "" || c.Text == "" {
			return 0, fmt.Errorf("rag: AddChunks: chunk %d has empty id or text", i)
		}
		if seen[c.ID] {
			return 0, fmt.Errorf("rag: AddChunks: duplicate chunk id %q in batch", c.ID)
		}
		seen[c.ID] = true
		if s.has(c.ID) {
			return 0, fmt.Errorf("rag: AddChunks: chunk id %q already stored", c.ID)
		}
		texts[i] = c.Text
	}
	vecs := s.pool.EncodeAll(texts)
	// Metadata first (see the ordering discipline above), then the rows.
	s.live.mu.Lock()
	for _, c := range chunks {
		s.live.byKey[c.ID] = chunkHit(c)
	}
	s.live.mu.Unlock()
	for i, c := range chunks {
		live.Add(vecs[i], c.ID)
	}
	return len(chunks), nil
}

// AddChunks implements Ingestor on the facade.
func (f facade) AddChunks(chunks []chunk.Chunk) (int, error) { return f.s.addChunks(chunks) }
