package vecstore

import (
	"testing"

	"repro/internal/rng"
)

func buildHNSW(t testing.TB, n, dim int, cfg HNSWConfig) (*HNSW, [][]float32) {
	t.Helper()
	cfg.Dim = dim
	r := rng.New(101)
	vecs := randomUnit(r, n, dim)
	h := NewHNSW(cfg)
	for i, v := range vecs {
		if id := h.Add(v, ""); id != i {
			t.Fatalf("id %d, want %d", id, i)
		}
	}
	return h, vecs
}

func TestHNSWSelfRetrieval(t *testing.T) {
	h, vecs := buildHNSW(t, 500, 32, HNSWConfig{Seed: 1})
	hits := 0
	for i := 0; i < len(vecs); i += 7 {
		res := h.Search(vecs[i], 1)
		if len(res) == 1 && res[0].ID == i {
			hits++
		}
	}
	total := (len(vecs) + 6) / 7
	if float64(hits)/float64(total) < 0.95 {
		t.Fatalf("self-retrieval %d/%d", hits, total)
	}
}

func TestHNSWRecallHigh(t *testing.T) {
	h, _ := buildHNSW(t, 800, 32, HNSWConfig{Seed: 2, EfSearch: 64})
	r := rng.New(103)
	queries := randomUnit(r, 40, 32)
	if rec := h.Recall(queries, 5); rec < 0.85 {
		t.Fatalf("recall@5 = %.3f", rec)
	}
}

func TestHNSWRecallImprovesWithEf(t *testing.T) {
	h, _ := buildHNSW(t, 800, 24, HNSWConfig{Seed: 3})
	r := rng.New(107)
	queries := randomUnit(r, 30, 24)
	h.SetEfSearch(4)
	low := h.Recall(queries, 5)
	h.SetEfSearch(128)
	high := h.Recall(queries, 5)
	if high < low {
		t.Fatalf("recall fell with wider beam: %.3f -> %.3f", low, high)
	}
	if high < 0.9 {
		t.Fatalf("ef=128 recall %.3f", high)
	}
}

func TestHNSWDeterministic(t *testing.T) {
	a, _ := buildHNSW(t, 300, 16, HNSWConfig{Seed: 5})
	b, _ := buildHNSW(t, 300, 16, HNSWConfig{Seed: 5})
	r := rng.New(109)
	q := randomUnit(r, 1, 16)[0]
	ra, rb := a.Search(q, 5), b.Search(q, 5)
	if len(ra) != len(rb) {
		t.Fatal("result lengths differ")
	}
	for i := range ra {
		if ra[i].ID != rb[i].ID {
			t.Fatal("construction not deterministic")
		}
	}
}

func TestHNSWEmptyAndSingle(t *testing.T) {
	h := NewHNSW(HNSWConfig{Dim: 8, Seed: 1})
	if res := h.Search(make([]float32, 8), 3); res != nil {
		t.Fatal("empty index returned results")
	}
	v := []float32{1, 0, 0, 0, 0, 0, 0, 0}
	h.Add(v, "only")
	res := h.Search(v, 3)
	if len(res) != 1 || res[0].Key != "only" {
		t.Fatalf("single-node search: %v", res)
	}
}

func TestHNSWKeys(t *testing.T) {
	h, vecs := buildHNSW(t, 50, 16, HNSWConfig{Seed: 7})
	_ = vecs
	if h.Key(10) != "" {
		t.Fatal("unexpected key")
	}
	if h.Len() != 50 || h.Dim() != 16 {
		t.Fatal("shape accessors")
	}
}

func TestHNSWDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHNSW(HNSWConfig{Dim: 8}).Add(make([]float32, 4), "")
}

func BenchmarkHNSWSearch10k(b *testing.B) {
	h, _ := buildHNSW(b, 10000, 128, HNSWConfig{Seed: 1})
	r := rng.New(1)
	q := randomUnit(r, 1, 128)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.Search(q, 5)
	}
}
