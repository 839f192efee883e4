package vecstore

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// Conformance suite: every Index implementation must satisfy the same
// behavioural contract the retrieval layer relies on. Approximate indexes
// (IVF-PQ, HNSW) are configured for exhaustive/high-recall operation here
// so the contract checks are exact.

type indexFactory struct {
	name string
	make func(dim int, vecs [][]float32, keys []string) Index
}

func factories() []indexFactory {
	return []indexFactory{
		{"Flat", func(dim int, vecs [][]float32, keys []string) Index {
			ix := NewFlat(dim)
			for i, v := range vecs {
				ix.Add(v, keys[i])
			}
			return ix
		}},
		{"HNSW-wide", func(dim int, vecs [][]float32, keys []string) Index {
			ix := NewHNSW(HNSWConfig{Dim: dim, EfSearch: 256, EfConstruction: 128, Seed: 1})
			for i, v := range vecs {
				ix.Add(v, keys[i])
			}
			return ix
		}},
		{"PQ", func(dim int, vecs [][]float32, keys []string) Index {
			// A one-cell raw IVF-PQ is the exhaustive PQ scan. Fine
			// subspaces (≤4 dims each) keep quantization near-lossless so
			// the exact-contract checks hold.
			ix := NewIVFPQ(IVFPQConfig{Dim: dim, NList: 1, M: (dim + 3) / 4, Seed: 1})
			for i, v := range vecs {
				ix.Add(v, keys[i])
			}
			ix.Train()
			return ix
		}},
		{"IVFPQ-fullprobe", func(dim int, vecs [][]float32, keys []string) Index {
			ix := NewIVFPQ(IVFPQConfig{Dim: dim, NList: 8, NProbe: 8, M: (dim + 3) / 4, Seed: 1})
			for i, v := range vecs {
				ix.Add(v, keys[i])
			}
			ix.Train()
			return ix
		}},
		{"IVFPQ-residual", func(dim int, vecs [][]float32, keys []string) Index {
			ix := NewIVFPQ(IVFPQConfig{Dim: dim, NList: 8, NProbe: 8, M: (dim + 3) / 4, Seed: 1, Residual: true})
			for i, v := range vecs {
				ix.Add(v, keys[i])
			}
			ix.Train()
			return ix
		}},
		{"Memtable", func(dim int, vecs [][]float32, keys []string) Index {
			mt := NewMemtable(dim)
			for i, v := range vecs {
				mt.Add(v, keys[i])
			}
			return mt
		}},
		{"Live-Flat-split", func(dim int, vecs [][]float32, keys []string) Index {
			// The mutable layer with the corpus split across its two tiers:
			// the first half is the immutable base, the second half arrives
			// through live Add — both tiers exact, so the full contract holds.
			base := NewFlat(dim)
			cut := len(vecs) / 2
			for i := 0; i < cut; i++ {
				base.Add(vecs[i], keys[i])
			}
			lv := NewLive(base, nil)
			for i := cut; i < len(vecs); i++ {
				lv.Add(vecs[i], keys[i])
			}
			return lv
		}},
	}
}

func conformanceData(n, dim int) ([][]float32, []string) {
	r := rng.New(777)
	vecs := randomUnit(r, n, dim)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%04d", i)
	}
	return vecs, keys
}

func TestConformanceShape(t *testing.T) {
	vecs, keys := conformanceData(200, 16)
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make(16, vecs, keys)
			if ix.Len() != 200 {
				t.Fatalf("Len %d", ix.Len())
			}
			if ix.Dim() != 16 {
				t.Fatalf("Dim %d", ix.Dim())
			}
		})
	}
}

func TestConformanceResultsSortedAndKeyed(t *testing.T) {
	vecs, keys := conformanceData(200, 16)
	r := rng.New(778)
	queries := randomUnit(r, 10, 16)
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make(16, vecs, keys)
			for _, q := range queries {
				res := ix.Search(q, 7)
				if len(res) != 7 {
					t.Fatalf("%d results", len(res))
				}
				for i, rr := range res {
					if i > 0 && rr.Score > res[i-1].Score {
						t.Fatal("results not descending")
					}
					if rr.Key != keys[rr.ID] {
						t.Fatalf("key mismatch at rank %d", i)
					}
				}
			}
		})
	}
}

func TestConformanceSelfRetrieval(t *testing.T) {
	vecs, keys := conformanceData(200, 16)
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make(16, vecs, keys)
			miss := 0
			for i := 0; i < len(vecs); i += 9 {
				res := ix.Search(vecs[i], 1)
				if len(res) != 1 || res[0].ID != i {
					miss++
				}
			}
			// Quantized indexes (PQ, IVF-PQ) can flip a handful of near-ties
			// and HNSW is approximate; exact indexes must not miss at all.
			limit := 0
			switch f.name {
			case "HNSW-wide", "PQ", "IVFPQ-fullprobe", "IVFPQ-residual":
				limit = 2
			}
			if miss > limit {
				t.Fatalf("%d self-retrieval misses", miss)
			}
		})
	}
}

func TestConformanceKZeroAndOversized(t *testing.T) {
	vecs, keys := conformanceData(50, 8)
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make(8, vecs, keys)
			if res := ix.Search(vecs[0], 0); res != nil {
				t.Fatal("k=0 returned results")
			}
			res := ix.Search(vecs[0], 500)
			if len(res) == 0 || len(res) > 50 {
				t.Fatalf("k>n returned %d results", len(res))
			}
		})
	}
}

func TestConformanceDimMismatchPanics(t *testing.T) {
	vecs, keys := conformanceData(50, 8)
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make(8, vecs, keys)
			defer func() {
				if recover() == nil {
					t.Fatal("no panic on query dim mismatch")
				}
			}()
			ix.Search(make([]float32, 4), 1)
		})
	}
}

// TestConformanceBatchEdgeCases pins the batch path to the single-query
// contract for every index type: k <= 0 yields one nil slice per query
// (Search returns nil), an empty query slice yields an empty result
// slice, and k > n clamps to exactly what Search returns.
func TestConformanceBatchEdgeCases(t *testing.T) {
	vecs, keys := conformanceData(120, 12)
	r := rng.New(781)
	queries := randomUnit(r, 6, 12)
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make(12, vecs, keys)
			batch := ix.SearchBatch
			for _, k := range []int{0, -3} {
				res := batch(queries, k)
				if len(res) != len(queries) {
					t.Fatalf("k=%d: %d result slices for %d queries", k, len(res), len(queries))
				}
				for qi, rs := range res {
					if len(rs) != 0 {
						t.Fatalf("k=%d query %d: %d results, want none", k, qi, len(rs))
					}
				}
			}
			if res := batch(nil, 5); len(res) != 0 {
				t.Fatalf("empty query slice: %d result slices", len(res))
			}
			if res := batch([][]float32{}, 5); len(res) != 0 {
				t.Fatalf("zero-length query slice: %d result slices", len(res))
			}
			// k > n: per-query results must equal the single-query path.
			res := batch(queries, 500)
			for qi, q := range queries {
				seq := ix.Search(q, 500)
				if len(res[qi]) != len(seq) {
					t.Fatalf("k>n query %d: batch %d vs sequential %d results", qi, len(res[qi]), len(seq))
				}
				for j := range seq {
					if res[qi][j].ID != seq[j].ID || res[qi][j].Score != seq[j].Score {
						t.Fatalf("k>n query %d rank %d: batch differs from sequential", qi, j)
					}
				}
			}
		})
	}
}

func TestConformanceBatchSearch(t *testing.T) {
	vecs, keys := conformanceData(150, 12)
	r := rng.New(779)
	queries := randomUnit(r, 20, 12)
	for _, f := range factories() {
		t.Run(f.name, func(t *testing.T) {
			ix := f.make(12, vecs, keys)
			batch := ix.SearchBatch(queries, 3)
			for i, q := range queries {
				seq := ix.Search(q, 3)
				if len(batch[i]) != len(seq) {
					t.Fatal("batch/sequential length mismatch")
				}
				for j := range seq {
					if batch[i][j].ID != seq[j].ID {
						t.Fatal("batch order differs from sequential")
					}
				}
			}
		})
	}
}
