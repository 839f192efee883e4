package main

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/corpus"
)

func TestSequenceIsAPureFunctionOfSeed(t *testing.T) {
	kb := corpus.Build(7, 40)
	for _, w := range workloadNames[1:] { // mcqa_build has no op sequence
		a, b := newSequence(w, 7, kb), newSequence(w, 7, kb)
		if a.Hash() != b.Hash() {
			t.Errorf("%s: same seed gave hashes %s and %s", w, a.Hash(), b.Hash())
		}
		// Out-of-order access must not matter: At(i) has no hidden state.
		for _, i := range []int{hashOps + 5, 3, 0, 3, 99999} {
			if !reflect.DeepEqual(a.At(i), b.At(i)) {
				t.Errorf("%s: op %d differs between two sequences of one seed", w, i)
			}
		}
		if other := newSequence(w, 8, kb); other.Hash() == a.Hash() {
			t.Errorf("%s: seeds 7 and 8 gave the same hash %s", w, a.Hash())
		}
	}
}

func TestSequenceShapes(t *testing.T) {
	kb := corpus.Build(3, 40)
	const n = 20000

	miss := newSequence(wlServeMiss, 3, kb)
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		o := miss.At(i)
		if o.Kind != opSearch || seen[o.Query] {
			t.Fatalf("serve_miss op %d: kind %d, repeated query %v", i, o.Kind, seen[o.Query])
		}
		seen[o.Query] = true
	}

	zipf := newSequence(wlServeZipf, 3, kb)
	counts := make(map[string]int)
	for i := 0; i < n; i++ {
		counts[zipf.At(i).Query]++
	}
	if len(counts) > zipfKeys || len(counts) < zipfKeys/4 {
		t.Errorf("serve_zipf drew %d distinct keys from a pool of %d", len(counts), zipfKeys)
	}
	if hot := counts[zipf.keys[0]]; hot < n/20 {
		t.Errorf("serve_zipf's hottest key was drawn %d times in %d; zipf(%.1f) gives it about a tenth", hot, n, zipfS)
	}

	ingest := newSequence(wlIngestMixed, 3, kb)
	ids := make(map[string]bool)
	for i := 0; i < n; i++ {
		o := ingest.At(i)
		if wantAdd := i%insertEvery == insertEvery-1; (o.Kind == opAdd) != wantAdd {
			t.Fatalf("ingest_mixed op %d: kind %d, want add=%v", i, o.Kind, wantAdd)
		}
		if o.Kind != opAdd {
			continue
		}
		if len(o.Adds) != insertBatch {
			t.Fatalf("ingest_mixed op %d adds %d chunks, want %d", i, len(o.Adds), insertBatch)
		}
		for _, a := range o.Adds {
			if ids[a.ID] || !strings.HasPrefix(a.ID, insertPrefix) || a.Text == "" {
				t.Fatalf("ingest_mixed op %d: bad or repeated chunk %+v", i, a)
			}
			ids[a.ID] = true
		}
	}
}

// The servers must only ever see inputs generated from the corpus domain,
// never a fixed out-of-domain pool.
func TestQueriesComeFromTheCorpusDomain(t *testing.T) {
	kb := corpus.Build(5, 40)
	stems := make(map[string]bool)
	for _, f := range kb.AllFacts() {
		stems[f.QuestionStem()] = true
	}
	seq := newSequence(wlRouterFanout, 5, kb)
	for i := 0; i < 500; i++ {
		q := seq.At(i).Query
		cut := strings.LastIndex(q, " (")
		if cut < 0 || !stems[q[:cut]] {
			t.Fatalf("op %d query %q is not a salted fact question stem", i, q)
		}
	}
}
