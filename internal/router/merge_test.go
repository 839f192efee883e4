package router

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/chunk"
	"repro/internal/rag"
	"repro/internal/serve"
)

// testCorpus mirrors the serve test corpus: synthetic chunks with enough
// lexical spread that retrieval produces distinct score profiles.
func testCorpus(n int) []chunk.Chunk {
	topics := []string{"galaxy rotation curves", "stellar nucleosynthesis yields",
		"exoplanet transit photometry", "cosmic microwave background anisotropy",
		"interstellar dust extinction", "supernova light curve decay"}
	out := make([]chunk.Chunk, n)
	for i := range out {
		out[i] = chunk.Chunk{
			ID:    fmt.Sprintf("c%04d", i),
			DocID: fmt.Sprintf("d%03d", i/8),
			Index: i % 8,
			Text: fmt.Sprintf("%s measurement series %d with calibration run %d and residual %d",
				topics[i%len(topics)], i, i*7%13, i*3%11),
			Tokens: 12,
		}
	}
	return out
}

// partition splits a corpus across nShards modulo the chunk index, the
// corpusgen sharding scheme.
func partition(chunks []chunk.Chunk, nShards int) [][]chunk.Chunk {
	parts := make([][]chunk.Chunk, nShards)
	for i, c := range chunks {
		parts[i%nShards] = append(parts[i%nShards], c)
	}
	return parts
}

// storeSearch builds a fresh store over chunks and retrieves every query
// at depth k — the reference answer a single unsharded backend would give.
func storeSearch(chunks []chunk.Chunk, queries []string, k int) [][]serve.SearchResult {
	return rag.BuildChunkStore(nil, chunks, 0).RetrieveBatch(queries, k)
}

// TestMergeSubsetProperty is the exactness property the degraded-recall
// contract stands on: for ANY subset S of shards, merging the per-shard
// top-k lists equals the exact top-k of a single store built over the
// union of S's corpora — bit-identical scores, same order. So a degraded
// response (some shards missing) is still the exact answer over the
// surviving corpus, not an approximation.
func TestMergeSubsetProperty(t *testing.T) {
	const nShards = 3
	corpus := testCorpus(48)
	parts := partition(corpus, nShards)
	queries := []string{
		corpus[0].Text, corpus[17].Text, corpus[46].Text,
		"supernova decay residual calibration",
		"cosmic dust photometry",
	}
	for _, k := range []int{1, 3, 10, 200} { // 200 > any union size
		// Per-shard reference lists at depth k.
		shardLists := make([][][]serve.SearchResult, nShards)
		for si, part := range parts {
			shardLists[si] = storeSearch(part, queries, k)
		}
		// Every non-empty subset of shards.
		for mask := 1; mask < 1<<nShards; mask++ {
			var union []chunk.Chunk
			for si := 0; si < nShards; si++ {
				if mask&(1<<si) != 0 {
					union = append(union, parts[si]...)
				}
			}
			want := storeSearch(union, queries, k)
			for qi := range queries {
				var lists [][]serve.SearchResult
				for si := 0; si < nShards; si++ {
					if mask&(1<<si) != 0 {
						lists = append(lists, shardLists[si][qi])
					}
				}
				got := MergeTopK(lists, k)
				if len(got) == 0 && len(want[qi]) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want[qi]) {
					t.Fatalf("subset %03b k=%d query %d:\nmerged: %+v\nexact:  %+v", mask, k, qi, got, want[qi])
				}
			}
		}
	}
}

// TestMergeTieOrder: exact score ties break by ascending id regardless of
// which shard holds which document.
func TestMergeTieOrder(t *testing.T) {
	lists := [][]serve.SearchResult{
		{{ID: "x", Score: 0.5}, {ID: "a", Score: 0.25}},
		{{ID: "m", Score: 0.5}, {ID: "b", Score: 0.25}},
	}
	got := MergeTopK(lists, 4)
	wantIDs := []string{"m", "x", "a", "b"}
	for i, w := range wantIDs {
		if got[i].ID != w {
			t.Fatalf("tie order: got %+v, want ids %v", got, wantIDs)
		}
	}
}

// TestMergeDuplicateID: a doc double-assigned by a bad shard map appears
// once, at its best-ranked position.
func TestMergeDuplicateID(t *testing.T) {
	lists := [][]serve.SearchResult{
		{{ID: "a", Score: 0.9}, {ID: "dup", Score: 0.6}},
		{{ID: "dup", Score: 0.5}, {ID: "b", Score: 0.4}},
	}
	got := MergeTopK(lists, 4)
	wantIDs := []string{"a", "dup", "b"}
	if len(got) != len(wantIDs) {
		t.Fatalf("got %+v, want ids %v", got, wantIDs)
	}
	for i, w := range wantIDs {
		if got[i].ID != w {
			t.Fatalf("got %+v, want ids %v", got, wantIDs)
		}
	}
	if got[1].Score != 0.6 {
		t.Fatalf("duplicate kept score %v, want the better 0.6", got[1].Score)
	}
}

// TestMergeEdgeCases: k<=0, empty lists, nil input.
func TestMergeEdgeCases(t *testing.T) {
	if got := MergeTopK(nil, 5); len(got) != 0 {
		t.Fatalf("nil lists: %+v", got)
	}
	if got := MergeTopK([][]serve.SearchResult{{{ID: "a", Score: 1}}}, 0); len(got) != 0 {
		t.Fatalf("k=0: %+v", got)
	}
	if got := MergeTopK([][]serve.SearchResult{nil, {}, {{ID: "a", Score: 1}}}, 5); len(got) != 1 || got[0].ID != "a" {
		t.Fatalf("sparse lists: %+v", got)
	}
}
