package vecstore

import (
	"math/rand"
	"testing"
)

func timingFixture(t *testing.T, dim, n int) (*Flat, [][]float32) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	ix := NewFlat(dim)
	vec := make([]float32, dim)
	for i := 0; i < n; i++ {
		for d := range vec {
			vec[d] = rng.Float32()*2 - 1
		}
		ix.Add(vec, keyOf(i))
	}
	queries := make([][]float32, 7)
	for qi := range queries {
		q := make([]float32, dim)
		for d := range q {
			q[d] = rng.Float32()*2 - 1
		}
		queries[qi] = q
	}
	return ix, queries
}

func keyOf(i int) string { return string(rune('a'+i%26)) + string(rune('0'+i%10)) }

// TestBatchSearchTimedParity pins the timed entry point to the untimed
// one and to per-query Search on every family: identical results, a real
// scan/merge split on Flat, IVF-PQ (segment or cell scans, then heap
// folds) and Live (tier scans, then the tier fold), and the whole
// batch under Scan with no merge phase on HNSW.
func TestBatchSearchTimedParity(t *testing.T) {
	ix, queries := timingFixture(t, 16, 500)
	lv := NewLive(ix, NewMemtable(16))
	lv.Add(queries[0], "live-row")
	for _, c := range []struct {
		name  string
		ix    Index
		merge bool
	}{
		{"Flat", ix, true},
		{"Live", lv, true},
		{"IVFPQ-residual", ix.ToIVFPQ(IVFPQConfig{NList: 8, NProbe: 3, M: 4, Seed: 1, Residual: true}), true},
		{"HNSW", ix.ToHNSW(HNSWConfig{Seed: 3}), false},
	} {
		want := make([][]Result, len(queries))
		for qi, q := range queries {
			want[qi] = c.ix.Search(q, 10)
		}
		assertSameResults(t, c.name+".SearchBatch", want, c.ix.SearchBatch(queries, 10))
		got, tm := BatchSearchTimed(c.ix, queries, 10)
		if tm.Scan <= 0 || tm.Merge < 0 {
			t.Fatalf("%s: implausible timing: %+v", c.name, tm)
		}
		if c.merge && tm.Merge == 0 {
			t.Fatalf("%s booked no merge phase: %+v", c.name, tm)
		}
		if !c.merge && tm.Merge != 0 {
			t.Fatalf("%s booked a merge phase: %+v", c.name, tm)
		}
		assertSameResults(t, "BatchSearchTimed("+c.name+")", want, got)
	}
}

func assertSameResults(t *testing.T, label string, want, got [][]Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d result sets, want %d", label, len(got), len(want))
	}
	for qi := range want {
		if len(want[qi]) != len(got[qi]) {
			t.Fatalf("%s: query %d: %d results, want %d", label, qi, len(got[qi]), len(want[qi]))
		}
		for i := range want[qi] {
			if want[qi][i] != got[qi][i] {
				t.Fatalf("%s: query %d result %d: %+v, want %+v", label, qi, i, got[qi][i], want[qi][i])
			}
		}
	}
}
