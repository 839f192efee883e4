package vecstore

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// buildParityPair grows the flattened index and the jagged reference from
// the same seed and insertion order.
func buildParityPair(t *testing.T, n, dim int, cfg HNSWConfig) (*HNSW, *hnswRef, [][]float32) {
	t.Helper()
	cfg.Dim = dim
	r := rng.New(211)
	vecs := randomUnit(r, n, dim)
	h := NewHNSW(cfg)
	ref := newHNSWRef(cfg)
	for i, v := range vecs {
		key := fmt.Sprintf("k%04d", i)
		if got, want := h.Add(v, key), ref.add(v, key); got != want {
			t.Fatalf("Add id diverged: flat %d, ref %d", got, want)
		}
	}
	return h, ref, vecs
}

// assertGraphEqual pins that the two implementations built the identical
// graph: same levels, entry point, and per-level neighbour lists in the
// same stored order.
func assertGraphEqual(t *testing.T, h *HNSW, ref *hnswRef) {
	t.Helper()
	if h.entry != ref.entry || h.maxLv != ref.maxLv {
		t.Fatalf("entry/maxLv diverged: flat (%d,%d), ref (%d,%d)", h.entry, h.maxLv, ref.entry, ref.maxLv)
	}
	if len(h.levels) != len(ref.levels) {
		t.Fatalf("levels length %d vs %d", len(h.levels), len(ref.levels))
	}
	for id := range h.levels {
		if h.levels[id] != ref.levels[id] {
			t.Fatalf("node %d level %d, ref %d", id, h.levels[id], ref.levels[id])
		}
		for lv := 0; lv <= h.levels[id]; lv++ {
			got := h.neighbours(id, lv)
			want := ref.links[lv][id]
			if len(got) != len(want) {
				t.Fatalf("node %d level %d: %d links, ref %d", id, lv, len(got), len(want))
			}
			for i := range got {
				if int(got[i]) != want[i] {
					t.Fatalf("node %d level %d slot %d: link %d, ref %d", id, lv, i, got[i], want[i])
				}
			}
		}
	}
}

func assertResultsIdentical(t *testing.T, got, want []Result, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, ref %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: result %d = %+v, ref %+v", label, i, got[i], want[i])
		}
	}
}

// TestHNSWJaggedParity is the tentpole pin: the CSR/code-block index must
// build bit-for-bit the same graph as the retained jagged reference on
// the same seed and insertion order, and single-query searches must
// return identical ids AND identical float scores.
func TestHNSWJaggedParity(t *testing.T) {
	configs := []HNSWConfig{
		{Seed: 1},
		{Seed: 42, M: 6, EfConstruction: 32, EfSearch: 24},
		{Seed: 7, M: 4, EfConstruction: 16, EfSearch: 8},
	}
	for ci, cfg := range configs {
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			h, ref, vecs := buildParityPair(t, 400, 24, cfg)
			assertGraphEqual(t, h, ref)
			r := rng.New(509)
			queries := append(randomUnit(r, 50, 24), vecs[:20]...)
			for qi, q := range queries {
				for _, k := range []int{1, 5, 17, 1000} {
					got := h.Search(q, k)
					want := ref.search(q, k)
					assertResultsIdentical(t, got, want, fmt.Sprintf("query %d k=%d", qi, k))
				}
			}
		})
	}
}

// TestHNSWBatchParity pins SearchBatch against the reference's sequential
// answers — the batch fan-out must not perturb per-query results.
func TestHNSWBatchParity(t *testing.T) {
	h, ref, _ := buildParityPair(t, 300, 16, HNSWConfig{Seed: 3, M: 8})
	r := rng.New(613)
	queries := randomUnit(r, 64, 16)
	batch := h.SearchBatch(queries, 10)
	if len(batch) != len(queries) {
		t.Fatalf("batch returned %d rows, want %d", len(batch), len(queries))
	}
	for qi, q := range queries {
		assertResultsIdentical(t, batch[qi], ref.search(q, 10), fmt.Sprintf("batch query %d", qi))
	}
}

func TestHNSWKeyPanicsOutOfRange(t *testing.T) {
	h, _ := buildHNSW(t, 5, 8, HNSWConfig{Seed: 1})
	for _, id := range []int{-1, 5, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Key(%d) did not panic", id)
				}
			}()
			h.Key(id)
		}()
	}
	if h.Key(4) != "" {
		t.Fatalf("in-range Key changed behaviour")
	}
}

// TestHNSWRecallGate is the efSearch-sweep regression gate from the
// modernisation issue: on the standard fixture, a reasonable beam width
// must hold recall@10 at or above 0.9, and the sweep must be monotone
// enough that the widest beam is the best.
func TestHNSWRecallGate(t *testing.T) {
	h, _ := buildHNSW(t, 1000, 32, HNSWConfig{Seed: 5})
	exact := h.flatView()
	queries := randomUnit(rng.New(1201), 50, 32)
	sweep := []int{16, 48, 128}
	recalls := make([]float64, len(sweep))
	for i, ef := range sweep {
		h.SetEfSearch(ef)
		recalls[i] = h.RecallAgainst(exact, queries, 10)
	}
	if best := recalls[len(recalls)-1]; best < 0.9 {
		t.Fatalf("recall@10 at efSearch=%d is %.3f, want >= 0.9 (sweep %v)", sweep[len(sweep)-1], best, recalls)
	}
	for i := 1; i < len(recalls); i++ {
		if recalls[i] < recalls[i-1]-0.05 {
			t.Fatalf("recall regressed along the sweep: %v at efSearch %v", recalls, sweep)
		}
	}
}
