package vecstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randVec fills deterministic pseudo-random vectors for the live tests.
func randVec(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// TestLiveMatchesFlatUnion pins the merge-exactness property: a Live index
// (Flat base + memtable) answers bit-identically to one Flat index over
// the union corpus — same ids, same FP16 scores, same tie-breaks — across
// memtable fills of 0, 1, half and full, and k below, at and above the
// corpus size. This is the subset-merge argument from the router tier
// applied to the mutable layer: both tiers score through the same FP16
// kernel and merge under the same total order (score desc, id asc).
func TestLiveMatchesFlatUnion(t *testing.T) {
	const dim, nBase, nMem = 24, 60, 40
	rng := rand.New(rand.NewSource(7))
	vecs := make([][]float32, nBase+nMem)
	for i := range vecs {
		vecs[i] = randVec(rng, dim)
	}
	queries := make([][]float32, 9)
	for i := range queries {
		queries[i] = randVec(rng, dim)
	}

	for _, fill := range []int{0, 1, nMem / 2, nMem} {
		n := nBase + fill
		base := NewFlat(dim)
		union := NewFlat(dim)
		for i := 0; i < nBase; i++ {
			base.Add(vecs[i], fmt.Sprintf("k%03d", i))
			union.Add(vecs[i], fmt.Sprintf("k%03d", i))
		}
		live := NewLive(base, nil)
		for i := nBase; i < n; i++ {
			id := live.Add(vecs[i], fmt.Sprintf("k%03d", i))
			if id != i {
				t.Fatalf("fill=%d: Add assigned id %d, want %d", fill, id, i)
			}
			union.Add(vecs[i], fmt.Sprintf("k%03d", i))
		}
		for _, k := range []int{1, 3, 10, n, 2 * n} {
			for qi, q := range queries {
				want := union.Search(q, k)
				got := live.Search(q, k)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("fill=%d k=%d query=%d:\n live %v\nunion %v", fill, k, qi, got, want)
				}
			}
			gotB := live.SearchBatch(queries, k)
			wantB := union.SearchBatch(queries, k)
			for qi := range queries {
				// Search/SearchBatch normalise empties differently across
				// index families; per-query contents are the contract.
				if len(gotB[qi]) == 0 && len(wantB[qi]) == 0 {
					continue
				}
				if !reflect.DeepEqual(gotB[qi], wantB[qi]) {
					t.Fatalf("fill=%d k=%d batch query=%d:\n live %v\nunion %v", fill, k, qi, gotB[qi], wantB[qi])
				}
			}
		}
	}
}

// TestLiveCompactionPreservesResults drains the memtable in two steps
// (partial cut, then the rest) and checks after each publish that ids are
// stable and searches still answer bit-identically to the flat union —
// compaction must be invisible to readers beyond the Stats kind.
func TestLiveCompactionPreservesResults(t *testing.T) {
	const dim, nBase, nMem = 16, 30, 20
	rng := rand.New(rand.NewSource(11))
	base := NewFlat(dim)
	union := NewFlat(dim)
	for i := 0; i < nBase; i++ {
		v := randVec(rng, dim)
		base.Add(v, fmt.Sprintf("b%02d", i))
		union.Add(v, fmt.Sprintf("b%02d", i))
	}
	live := NewLive(base, nil)
	ids := make(map[string]int)
	for i := 0; i < nMem; i++ {
		v := randVec(rng, dim)
		key := fmt.Sprintf("m%02d", i)
		ids[key] = live.Add(v, key)
		union.Add(v, key)
	}
	q := randVec(rng, dim)

	for _, cut := range []int{nMem / 3, nMem - nMem/3} {
		newBase, err := live.CompactBase(cut)
		if err != nil {
			t.Fatalf("CompactBase(%d): %v", cut, err)
		}
		live = live.Rotate(newBase, cut)
		if live.Len() != nBase+nMem {
			t.Fatalf("after rotate: Len=%d, want %d", live.Len(), nBase+nMem)
		}
		for key, id := range ids {
			if got := live.Key(id); got != key {
				t.Fatalf("after rotate at %d: Key(%d)=%q, want %q", cut, id, got, key)
			}
		}
		if got, want := live.Search(q, nBase+nMem), union.Search(q, nBase+nMem); !reflect.DeepEqual(got, want) {
			t.Fatalf("after rotate at %d: results diverged\n live %v\nunion %v", cut, got, want)
		}
	}
	if live.MemLen() != 0 {
		t.Fatalf("after full drain: MemLen=%d, want 0", live.MemLen())
	}
}

// TestLiveCompactCarriesFirstPass pins that compaction appends the
// memtable's rows as they are: the compacted base holds the base's codes
// and keys followed by the drained rows', and its first-pass state (int8
// codes and row bounds) equals what NewFlatFromCodes derives over that same
// code block. The original base must not grow.
func TestLiveCompactCarriesFirstPass(t *testing.T) {
	const dim, nBase, nMem = 20, 37, 23
	rng := rand.New(rand.NewSource(13))
	base := NewFlat(dim)
	for i := 0; i < nBase; i++ {
		base.Add(randVec(rng, dim), fmt.Sprintf("b%02d", i))
	}
	live := NewLive(base, nil)
	for i := 0; i < nMem; i++ {
		live.Add(randVec(rng, dim), fmt.Sprintf("m%02d", i))
	}
	const cut = nMem - 5
	compacted, err := live.CompactBase(cut)
	if err != nil {
		t.Fatal(err)
	}
	if base.Len() != nBase || compacted.Len() != nBase+cut {
		t.Fatalf("base %d rows, compacted %d; want %d and %d", base.Len(), compacted.Len(), nBase, nBase+cut)
	}
	mem := live.mem.snapshot()
	wantCodes := append(append([]uint16(nil), base.codes...), mem.codes[:cut*dim]...)
	wantKeys := append(append([]string(nil), base.keys...), mem.keys[:cut]...)
	want := NewFlatFromCodes(dim, wantCodes, wantKeys)
	if !reflect.DeepEqual(compacted.codes, want.codes) || !reflect.DeepEqual(compacted.keys, want.keys) {
		t.Fatal("compacted codes or keys differ from the base followed by the drained rows")
	}
	if !reflect.DeepEqual(compacted.i8, want.i8) {
		t.Fatal("compacted int8 codes differ from NewFlatFromCodes over the same codes")
	}
	if !reflect.DeepEqual(compacted.bnd, want.bnd) {
		t.Fatal("compacted row bounds differ from NewFlatFromCodes over the same codes")
	}
}

// TestLiveCompactBaseRejects pins the error path: a cut outside the
// memtable.
func TestLiveCompactBaseRejects(t *testing.T) {
	live := NewLive(NewFlat(4), nil)
	live.Add([]float32{1, 0, 0, 0}, "a")
	if _, err := live.CompactBase(2); err == nil {
		t.Fatal("CompactBase beyond memtable length succeeded")
	}
	if _, err := live.CompactBase(-1); err == nil {
		t.Fatal("CompactBase(-1) succeeded")
	}
}
