package rag

import (
	"fmt"

	"repro/internal/vecstore"
)

// Hot-swap hooks for the serving layer: a store is treated as an immutable
// snapshot, and "swapping the index" means deriving a new snapshot that
// shares the encoder and metadata maps but serves a different
// vecstore.Index. The serving layer loads/trains the replacement index in
// the background, derives the snapshot with WithIndex, and publishes it
// with one atomic pointer store — readers mid-search keep the old snapshot,
// so no request ever observes a torn index.

// WithIndex returns a snapshot of the store serving index instead of the
// current one. The encoder and chunk metadata are shared (both are
// read-only at serve time); the receiver is not modified. The index keys
// must be chunk ids from the same corpus, and its dimensionality must
// match the encoder's.
func (s *ChunkStore) WithIndex(index vecstore.Index) (*ChunkStore, error) {
	snap, err := s.withIndex(index)
	if err != nil {
		return nil, err
	}
	return &ChunkStore{snap}, nil
}

// WithIndex returns a snapshot of the trace store serving index instead of
// the current one (see ChunkStore.WithIndex).
func (s *TraceStore) WithIndex(index vecstore.Index) (*TraceStore, error) {
	snap, err := s.withIndex(index)
	if err != nil {
		return nil, err
	}
	return &TraceStore{snap}, nil
}

// withIndex is both stores' WithIndex. A live store stays live: a
// swapped-in Flat gets a fresh memtable layer over it, and a Live (the
// compaction publish) passes through.
func (s *store) withIndex(index vecstore.Index) (store, error) {
	if err := s.validate(index); err != nil {
		return store{}, err
	}
	if s.live != nil {
		switch ix := index.(type) {
		case *vecstore.Flat:
			index = vecstore.NewLive(ix, nil)
		case *vecstore.Live:
		default:
			return store{}, fmt.Errorf("rag: WithIndex: a live store cannot serve a %s index", vecstore.StatsOf(ix).Kind)
		}
	}
	snap := *s
	snap.index = index
	return snap, nil
}

// has reports whether key names a stored record. Live inserts register
// metadata in the shared overlay, so an index holding post-build rows (a
// compaction successor) validates too.
func (s *store) has(key string) bool {
	if _, ok := s.byKey[key]; ok {
		return true
	}
	return s.live != nil && s.live.has(key)
}

// validate rejects the swaps that would otherwise fail silently: a
// dimension mismatch, and — by sampling stored keys against the store's
// metadata — a same-dimension index built from a different corpus (whose
// hits would all be dropped by collect, serving empty results with no
// error).
func (s *store) validate(index vecstore.Index) error {
	if index == nil {
		return fmt.Errorf("rag: WithIndex: nil index")
	}
	if dim := s.enc.Dim(); index.Dim() != dim {
		return fmt.Errorf("rag: WithIndex: index dim %d != encoder dim %d", index.Dim(), dim)
	}
	n := index.Len()
	if n == 0 {
		// An empty replacement would silently serve empty results — the
		// same failure mode the key sampling below exists to reject.
		return fmt.Errorf("rag: WithIndex: refusing to swap to an empty index")
	}
	samples := 16
	if n < samples {
		samples = n
	}
	for i := 0; i < samples; i++ {
		if key := index.Key(i * n / samples); !s.has(key) {
			return fmt.Errorf("rag: WithIndex: index key %q not in store metadata (index from a different corpus?)", key)
		}
	}
	return nil
}

// Index exposes the store's current index for stats and persistence; treat
// it as read-only while the store is serving.
func (s *store) Index() vecstore.Index { return s.index }
