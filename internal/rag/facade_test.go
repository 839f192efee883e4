package rag

import (
	"fmt"
	"testing"

	"repro/internal/mcq"
)

func TestChunkFacadeMatchesStore(t *testing.T) {
	fx := buildFixture(t, 4)
	store := BuildChunkStore(nil, fx.chunks, 0)
	f := NewChunkFacade(store)
	if f.Len() != store.Len() || f.(Swapper).Index() != store.Index() {
		t.Fatal("facade disagrees with store on Len/Index")
	}
	queries := []string{fx.chunks[0].Text, fx.chunks[3].Text}
	b, _ := f.RetrieveBatch(t.Context(), queries, 3, []string{"ignored", "ignored"}) // chunk facades ignore exclude
	hits := b.Hits
	direct := store.RetrieveBatch(queries, 3)
	if len(hits) != len(direct) {
		t.Fatalf("%d hit groups for %d queries", len(hits), len(queries))
	}
	for i := range hits {
		if len(hits[i]) != len(direct[i]) {
			t.Fatalf("query %d: %d vs %d hits", i, len(hits[i]), len(direct[i]))
		}
		for j, h := range hits[i] {
			if h != direct[i][j] {
				t.Fatalf("query %d rank %d: facade hit %+v vs store hit %+v", i, j, h, direct[i][j])
			}
		}
	}
}

func TestTraceFacadeMatchesStoreAndExcludes(t *testing.T) {
	fx := buildFixture(t, 4)
	store := BuildTraceStore(nil, mcq.ModeFocused, fx.traces, 0)
	f := NewTraceFacade(store)
	var tr *mcq.Trace
	for _, cand := range fx.traces {
		if cand.Mode == mcq.ModeFocused {
			tr = cand
			break
		}
	}
	b, _ := f.RetrieveBatch(t.Context(), []string{tr.Reasoning}, 3, nil)
	hits := b.Hits
	if len(hits) != 1 || len(hits[0]) == 0 || hits[0][0].ID != tr.ID || hits[0][0].Group != tr.QuestionID {
		t.Fatalf("hits %+v", hits)
	}
	if hits[0][0].Text != tr.Reasoning {
		t.Fatal("trace text not carried")
	}
	// Per-query exclusion forwards to the store's self-exclusion rule.
	excluded, _ := f.RetrieveBatch(t.Context(), []string{tr.Reasoning}, 3, []string{tr.QuestionID})
	for _, h := range excluded.Hits[0] {
		if h.Group == tr.QuestionID {
			t.Fatalf("excluded question %s leaked through the facade", tr.QuestionID)
		}
	}
}

func TestFacadeWithIndexSharesMetadata(t *testing.T) {
	fx := buildFixture(t, 3)
	store := BuildChunkStore(nil, fx.chunks, 0)
	f := NewChunkFacade(store)
	snap, err := f.(Swapper).WithIndex(store.Index())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Len() != f.Len() {
		t.Fatalf("snapshot len %d, want %d", snap.Len(), f.Len())
	}
	b, _ := snap.RetrieveBatch(t.Context(), []string{fx.chunks[1].Text}, 2, nil)
	got := b.Hits
	if len(got) != 1 || len(got[0]) == 0 || got[0][0].ID != fx.chunks[1].ID {
		t.Fatalf("snapshot retrieval %+v", got)
	}
	if _, err := f.(Swapper).WithIndex(nil); err == nil {
		t.Fatal("nil index accepted")
	}
}

// BenchmarkChunkRetrieveBatch tracks the serving hot path: micro-batches
// through the hoisted query-embedding pool (one pool per store, workers
// capped at batch size) instead of a fresh GOMAXPROCS fan-out per call.
func BenchmarkChunkRetrieveBatch(b *testing.B) {
	fx := buildFixture(b, 10)
	store := BuildChunkStore(nil, fx.chunks, 0)
	for _, size := range []int{1, 8, 32} {
		queries := make([]string, size)
		for i := range queries {
			queries[i] = fx.chunks[i%len(fx.chunks)].Text
		}
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = store.RetrieveBatch(queries, 5)
			}
		})
	}
}
