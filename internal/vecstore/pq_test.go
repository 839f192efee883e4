package vecstore

import (
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/rng"
)

// PQ parity suite, in the style of parity_test.go: the LUT-based
// asymmetric-distance scan (pooled, segment-parallel) must reproduce the
// retained reference scalar scan bit-for-bit on the quantized
// representation, and scoring each reconstructed row directly
// (reconstructionSearch) must produce the very same scores — the three
// scoring paths share one accumulation order by construction.

// reconstructionSearch scores every row by decoding it to the centroid
// concatenation its codes select and taking the inner product with q
// subspace by subspace, each partial dot accumulated sequentially (the
// lutInto order) and the partials combined by lutScore's 4-lane tree. It
// is the check that LUT scoring equals scoring the reconstructed vector.
func reconstructionSearch(ix *PQ, q []float32, k int) []Result {
	cb := ix.cb
	subDot := func(row []float32, s int) float32 {
		var sum float32
		for d := cb.bounds[s]; d < cb.bounds[s+1]; d++ {
			sum += q[d] * row[d]
		}
		return sum
	}
	row := make([]float32, cb.dim)
	h := newTopK(min(k, ix.Len()))
	for id := 0; id < ix.Len(); id++ {
		cb.decodeInto(row, ix.codes[id*cb.m:(id+1)*cb.m])
		var s0, s1, s2, s3 float32
		s := 0
		for ; s+4 <= cb.m; s += 4 {
			s0 += subDot(row, s)
			s1 += subDot(row, s+1)
			s2 += subDot(row, s+2)
			s3 += subDot(row, s+3)
		}
		for ; s < cb.m; s++ {
			s0 += subDot(row, s)
		}
		h.push(id, s0+s1+s2+s3)
	}
	return h.results(ix.keys)
}

// pqParityM picks an M that exercises ragged subspace bounds where the
// dimension allows it (dim=7, M=3 → subspace widths 3/2/2).
func pqParityM(dim int) int {
	switch dim {
	case 1:
		return 1
	case 7:
		return 3
	default:
		return dim / 8
	}
}

func buildParityPQ(t *testing.T, dim, n int) *PQ {
	t.Helper()
	vecs, keys := parityVectors(t, dim, n)
	ix := NewPQ(PQConfig{Dim: dim, M: pqParityM(dim), Seed: 41})
	for i, v := range vecs {
		ix.Add(v, keys[i])
	}
	ix.Train()
	return ix
}

func TestPQKernelParity(t *testing.T) {
	for _, dim := range parityDims {
		// Above 2×segmentMinRows for small dims so the segment-parallel
		// path engages; smaller at dim 384 to keep training quick.
		n := 1500
		if dim < 64 {
			n = 2*segmentMinRows + 37
		}
		ix := buildParityPQ(t, dim, n)
		r := rng.New(171)
		for _, k := range parityKs {
			for trial := 0; trial < 5; trial++ {
				q := randomUnit(r, 1, dim)[0]
				want := ix.searchReference(q, k)
				checkSameResults(t, "pq dim="+itoaTest(dim)+" k="+itoaTest(k),
					ix.Search(q, k), want)
				// Scoring the reconstructed rows must agree too: it pins
				// the same accumulation order as the LUT path.
				checkSameResults(t, "pq reconstruction dim="+itoaTest(dim)+" k="+itoaTest(k),
					reconstructionSearch(ix, q, k), want)
			}
		}
	}
}

func TestPQSearchBatchParity(t *testing.T) {
	for _, dim := range parityDims {
		n := 1200
		if dim < 64 {
			n = segmentMinRows + 13
		}
		ix := buildParityPQ(t, dim, n)
		queries := randomUnit(rng.New(173), 17, dim)
		for _, k := range parityKs {
			batch := ix.SearchBatch(queries, k)
			if len(batch) != len(queries) {
				t.Fatalf("dim=%d: %d batch results", dim, len(batch))
			}
			for qi, q := range queries {
				checkSameResults(t, "pq batch dim="+itoaTest(dim)+" k="+itoaTest(k),
					batch[qi], ix.searchReference(q, k))
			}
		}
	}
}

func TestPQLifecyclePanics(t *testing.T) {
	ix := NewPQ(PQConfig{Dim: 8})
	mustPanic(t, "Search before Train", func() { ix.Search(make([]float32, 8), 1) })
	ix.Add(make([]float32, 8), "a")
	ix.Train()
	mustPanic(t, "Add after Train", func() { ix.Add(make([]float32, 8), "b") })
}

func mustPanic(t *testing.T, label string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", label)
		}
	}()
	fn()
}

func TestIVFPQKernelParity(t *testing.T) {
	for _, dim := range parityDims {
		const n = 1200
		vecs, keys := parityVectors(t, dim, n)
		ix := NewIVFPQ(IVFPQConfig{Dim: dim, NList: 16, NProbe: 4, M: pqParityM(dim), Seed: 43})
		for i, v := range vecs {
			ix.Add(v, keys[i])
		}
		ix.Train()
		r := rng.New(177)
		for _, k := range parityKs {
			for trial := 0; trial < 5; trial++ {
				q := randomUnit(r, 1, dim)[0]
				checkSameResults(t, "ivfpq dim="+itoaTest(dim)+" k="+itoaTest(k),
					ix.Search(q, k), ix.searchReference(q, k))
			}
		}
		queries := randomUnit(r, 9, dim)
		batch := ix.SearchBatch(queries, 10)
		for qi, q := range queries {
			checkSameResults(t, "ivfpq batch dim="+itoaTest(dim),
				batch[qi], ix.searchReference(q, 10))
		}
	}
}

// TestIVFPQPostTrainAdd checks that vectors added after training are
// encoded, routed, and retrievable.
func TestIVFPQPostTrainAdd(t *testing.T) {
	const dim, n = 16, 600
	vecs, keys := parityVectors(t, dim, n)
	ix := NewIVFPQ(IVFPQConfig{Dim: dim, NList: 8, NProbe: 8, M: 8, Seed: 45})
	for i, v := range vecs[:n-50] {
		ix.Add(v, keys[i])
	}
	ix.Train()
	for i, v := range vecs[n-50:] {
		ix.Add(v, keys[n-50+i])
	}
	if ix.Len() != n {
		t.Fatalf("Len %d after post-train adds", ix.Len())
	}
	hits := 0
	for i := n - 50; i < n; i++ {
		for _, r := range ix.Search(vecs[i], 3) {
			if r.ID == i {
				hits++
				break
			}
		}
	}
	if hits < 45 {
		t.Fatalf("only %d/50 post-train vectors self-retrieve in top-3", hits)
	}
}

// TestIVFPQRecallRegression pins the IVF-PQ recall/latency/memory
// trade-off on a fixed fixture: fine sub-quantization (dsub=2) plus half
// probing must keep recall@10 against the exact FP16 scan at or above the
// regression floor, and the memory footprint must stay at M bytes/vector
// plus the amortised codebook.
func TestIVFPQRecallRegression(t *testing.T) {
	const dim, n = 32, 2000
	r := rng.New(211)
	vecs := randomUnit(r, n, dim)
	ix := NewIVFPQ(IVFPQConfig{Dim: dim, NList: 32, NProbe: 24, M: 16, Seed: 7})
	for _, v := range vecs {
		ix.Add(v, "")
	}
	ix.Train()
	queries := randomUnit(r, 40, dim)
	// Measured 0.885 when IVF-PQ landed (random unit vectors are both
	// clusterless — hard on the coarse probe — and structure-free — hard
	// on PQ — so this is a worst-case fixture; clustered embedding data
	// does better on both axes). Floor 0.85 is the acceptance bar.
	if got := ix.Recall(vecs, queries, 10); got < 0.85 {
		t.Fatalf("recall@10 nprobe=24 m=16: %.3f, below regression floor 0.85", got)
	}
	// Full probing isolates pure PQ quantization loss (measured 0.885:
	// at nprobe=24 the coarse probe already contributes no further loss).
	ix.SetNProbe(32)
	if got := ix.Recall(vecs, queries, 10); got < 0.87 {
		t.Fatalf("recall@10 nprobe=nlist: %.3f, below full-probe floor 0.87", got)
	}
}

// TestPQBytesPerVector pins the acceptance memory claim at the benchmark
// dimension: PQ at M=48 stores ≤ 1/8 the bytes-per-vector of Flat's FP16
// (codebook amortised over the benchmark row count).
func TestPQBytesPerVector(t *testing.T) {
	const dim, n = 384, 2000
	vecs, keys := parityVectors(t, dim, n)
	pq := NewPQ(PQConfig{Dim: dim, M: 48, Seed: 1})
	flat := NewFlat(dim)
	for i, v := range vecs {
		pq.Add(v, keys[i])
		flat.Add(v, keys[i])
	}
	pq.Train()
	pqStats, flatStats := StatsOf(pq), StatsOf(flat)
	// Amortise at the benchmark scale (100k rows), not the test's 2k.
	pqPer := float64(48) + float64(pqStats.Bytes-int64(n*48))/float64(benchN)
	if flatPer := flatStats.BytesPerVector(); pqPer > flatPer/8 {
		t.Fatalf("PQ %.1f bytes/vector at n=%d, want ≤ %.1f (Flat/8)", pqPer, benchN, flatPer/8)
	}
	if !strings.HasPrefix(pqStats.Kind, "PQ(") || flatStats.Kind != "Flat(FP16)" {
		t.Fatalf("StatsOf kinds: %q %q", pqStats.Kind, flatStats.Kind)
	}
}

// TestPQSaveLoadVSF3 round-trips a trained PQ index through the VSF3
// format: codebook, codes, and keys must survive byte-for-byte, searches
// must match bit-for-bit, and the format dispatchers must route each magic
// to the right loader.
func TestPQSaveLoadVSF3(t *testing.T) {
	const dim, n = 24, 300
	vecs, keys := parityVectors(t, dim, n)
	ix := NewPQ(PQConfig{Dim: dim, M: 6, Seed: 47})
	for i, v := range vecs {
		ix.Add(v, keys[i])
	}
	ix.Train()
	path := t.TempDir() + "/index.vsf3"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPQ(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != n || loaded.Dim() != dim || loaded.M() != 6 {
		t.Fatalf("loaded shape %d/%d/m=%d", loaded.Len(), loaded.Dim(), loaded.M())
	}
	for i := range keys {
		if loaded.Key(i) != ix.Key(i) {
			t.Fatalf("key %d mismatch", i)
		}
	}
	for i, c := range ix.codes {
		if loaded.codes[i] != c {
			t.Fatalf("code byte %d mismatch", i)
		}
	}
	for i, v := range ix.cb.cents {
		if loaded.cb.cents[i] != v {
			t.Fatalf("codebook float %d mismatch", i)
		}
	}
	r := rng.New(181)
	for trial := 0; trial < 3; trial++ {
		q := randomUnit(r, 1, dim)[0]
		checkSameResults(t, "vsf3 load", loaded.Search(q, 5), ix.Search(q, 5))
	}

	// Load dispatches on magic: VSF3 → *PQ.
	anyIx, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := anyIx.(*PQ); !ok {
		t.Fatalf("Load returned %T for VSF3", anyIx)
	}
	// LoadFlat refuses VSF3 with a typed error.
	if _, err := LoadFlat(path); err == nil {
		t.Fatal("LoadFlat accepted a VSF3 file")
	}

	// And the other direction: a VSF2 file loads via Load as *Flat and is
	// refused by LoadPQ.
	flat := NewFlat(dim)
	for i, v := range vecs {
		flat.Add(v, keys[i])
	}
	fpath := t.TempDir() + "/index.vsf"
	if err := flat.Save(fpath); err != nil {
		t.Fatal(err)
	}
	anyIx, err = Load(fpath)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := anyIx.(*Flat); !ok {
		t.Fatalf("Load returned %T for VSF2", anyIx)
	}
	if _, err := LoadPQ(fpath); err == nil {
		t.Fatal("LoadPQ accepted a VSF2 file")
	}
}

// TestPQLoadRejectsOutOfRangeCode: when ksub < 256 a corrupt code byte
// must fail at load time with ErrBadFormat, not panic or mis-score at
// search time.
func TestPQLoadRejectsOutOfRangeCode(t *testing.T) {
	const dim, n = 8, 50 // ksub = n = 50 < 256
	vecs, keys := parityVectors(t, dim, n)
	ix := NewPQ(PQConfig{Dim: dim, M: 4, Seed: 51})
	for i, v := range vecs {
		ix.Add(v, keys[i])
	}
	ix.Train()
	path := t.TempDir() + "/corrupt.vsf3"
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] = 255 // last code byte: centroid 255 of 50
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPQ(path); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("corrupt code byte: got %v, want ErrBadFormat", err)
	}
}

// TestStatsOfUntrainedPQ: the stats path must not panic on a
// not-yet-trained quantized index (it reports the staging buffer).
func TestStatsOfUntrainedPQ(t *testing.T) {
	pq := NewPQ(PQConfig{Dim: 8})
	pq.Add(make([]float32, 8), "a")
	if st := StatsOf(pq); st.Bytes != 16 {
		t.Fatalf("untrained PQ stats bytes %d, want 16 (FP16 staging)", st.Bytes)
	}
	ivfpq := NewIVFPQ(IVFPQConfig{Dim: 8, M: 4})
	ivfpq.Add(make([]float32, 8), "a")
	if st := StatsOf(ivfpq); st.Bytes != 16 {
		t.Fatalf("untrained IVFPQ stats bytes %d, want 16 (FP16 staging)", st.Bytes)
	}
}

// TestPQReconstruct checks that Reconstruct returns exactly the centroid
// concatenation the codes select.
func TestPQReconstruct(t *testing.T) {
	const dim, n = 12, 200
	vecs, keys := parityVectors(t, dim, n)
	ix := NewPQ(PQConfig{Dim: dim, M: 4, Seed: 49})
	for i, v := range vecs {
		ix.Add(v, keys[i])
	}
	ix.Train()
	for id := 0; id < n; id += 17 {
		got := ix.Reconstruct(id)
		code := ix.codes[id*ix.cb.m : (id+1)*ix.cb.m]
		for s, c := range code {
			cent := ix.cb.centroid(s, int(c))
			for j, v := range cent {
				if got[ix.cb.bounds[s]+j] != v {
					t.Fatalf("id %d subspace %d dim %d: %v != %v", id, s, j, got[ix.cb.bounds[s]+j], v)
				}
			}
		}
	}
}
