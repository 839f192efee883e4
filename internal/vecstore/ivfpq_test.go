package vecstore

import (
	"strings"
	"testing"

	"repro/internal/rng"
)

// IVF-PQ suite: the inverted-file layer, the PQ LUT kernel, residual
// encoding, and the build-once lifecycle.
// The parity discipline matches parity_test.go — the pooled, per-cell-LUT
// kernel path must reproduce the retained scalar reference bit-for-bit for
// both encodings.

// ivfpqVariants enumerates the encodings under test.
var ivfpqVariants = []struct {
	name string
	cfg  func(IVFPQConfig) IVFPQConfig
}{
	{"raw", func(c IVFPQConfig) IVFPQConfig { return c }},
	{"res", func(c IVFPQConfig) IVFPQConfig { c.Residual = true; return c }},
}

func buildVariantIVFPQ(t *testing.T, base IVFPQConfig, variant func(IVFPQConfig) IVFPQConfig, vecs [][]float32, keys []string) *IVFPQ {
	t.Helper()
	ix := NewIVFPQ(variant(base))
	for i, v := range vecs {
		ix.Add(v, keys[i])
	}
	ix.Train()
	return ix
}

// buildIVFPQ trains a raw IVF-PQ over n random unit vectors with fine
// subspaces (2 dims each) and returns it with the vectors.
func buildIVFPQ(t testing.TB, n, dim, nlist, nprobe int) (*IVFPQ, [][]float32) {
	t.Helper()
	vecs := randomUnit(rng.New(11), n, dim)
	ix := NewIVFPQ(IVFPQConfig{Dim: dim, NList: nlist, NProbe: nprobe, M: dim / 2, Seed: 1})
	for _, v := range vecs {
		ix.Add(v, "")
	}
	ix.Train()
	return ix, vecs
}

// reconstructionSearch scores every row of a raw-encoded IVF-PQ by
// reconstructing it — the concatenation of the centroids its codes select
// — and taking the inner product with q subspace by subspace, each partial
// dot accumulated sequentially (the lutInto order) and the partials
// combined by lutScore's 4-lane tree. It is the check that LUT scoring
// equals scoring the reconstructed vector.
func reconstructionSearch(ix *IVFPQ, q []float32, k int) []Result {
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
	for c, ids := range ix.cellIDs {
		for j, id := range ids {
			for s, code := range ix.cellCodes[c][j*cb.m : (j+1)*cb.m] {
				copy(row[cb.bounds[s]:cb.bounds[s+1]], cb.centroid(s, int(code)))
			}
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

// The exhaustive PQ scan: a one-cell raw IVF-PQ scores every row through
// the LUT kernel against one codebook trained on all rows — the same
// codes and the same results, for the same M and seed, as the standalone
// PQ index it replaces. The PQ tests below pin that configuration.

func buildParityPQ(t *testing.T, dim, n int) *IVFPQ {
	t.Helper()
	vecs, keys := parityVectors(t, dim, n)
	ix := NewIVFPQ(IVFPQConfig{Dim: dim, NList: 1, M: pqParityM(dim), Seed: 41})
	for i, v := range vecs {
		ix.Add(v, keys[i])
	}
	ix.Train()
	return ix
}

// TestPQKernelParity: the pooled LUT scan must reproduce the retained
// reference scalar scan bit-for-bit on the quantized representation, and
// scoring each reconstructed row directly (reconstructionSearch) must
// produce the very same scores — the three scoring paths share one
// accumulation order by construction.
func TestPQKernelParity(t *testing.T) {
	for _, dim := range parityDims {
		ix := buildParityPQ(t, dim, 1500)
		r := rng.New(171)
		for _, k := range parityKs {
			for trial := 0; trial < 5; trial++ {
				q := randomUnit(r, 1, dim)[0]
				want := ix.searchReference(q, k)
				checkSameResults(t, "pq dim="+itoaTest(dim)+" k="+itoaTest(k),
					ix.Search(q, k), want)
				checkSameResults(t, "pq reconstruction dim="+itoaTest(dim)+" k="+itoaTest(k),
					reconstructionSearch(ix, q, k), want)
			}
		}
	}
}

func TestPQSearchBatchParity(t *testing.T) {
	for _, dim := range parityDims {
		ix := buildParityPQ(t, dim, 1200)
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

// TestPQLifecyclePanics: the index is built once — Search before Train
// panics (TestIVFSearchUntrainedPanics), and so does Add after Train.
func TestPQLifecyclePanics(t *testing.T) {
	ix := NewIVFPQ(IVFPQConfig{Dim: 8, NList: 1})
	ix.Add(make([]float32, 8), "a")
	ix.Train()
	mustPanic(t, "Add after Train", func() { ix.Add(make([]float32, 8), "b") })
	if ix.Len() != 1 {
		t.Fatalf("Len %d after a refused Add, want 1", ix.Len())
	}
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

func TestIVFPQVariantsKernelParity(t *testing.T) {
	for _, dim := range []int{7, 32} {
		const n = 900
		vecs, keys := parityVectors(t, dim, n)
		base := IVFPQConfig{Dim: dim, NList: 12, NProbe: 5, M: pqParityM(dim), Seed: 53}
		for _, v := range ivfpqVariants {
			ix := buildVariantIVFPQ(t, base, v.cfg, vecs, keys)
			r := rng.New(191)
			for _, k := range parityKs {
				for trial := 0; trial < 4; trial++ {
					q := randomUnit(r, 1, dim)[0]
					checkSameResults(t, "ivfpq/"+v.name+" dim="+itoaTest(dim)+" k="+itoaTest(k),
						ix.Search(q, k), ix.searchReference(q, k))
				}
			}
			queries := randomUnit(r, 9, dim)
			batch := ix.SearchBatch(queries, 10)
			for qi, q := range queries {
				checkSameResults(t, "ivfpq/"+v.name+" batch dim="+itoaTest(dim),
					batch[qi], ix.searchReference(q, 10))
			}
		}
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

// TestIVFPQResidualRecallRegression pins the residual acceptance: on the
// recall-regression fixture (same dim/n/NList/NProbe/M/seed as
// TestIVFPQRecallRegression), residual encoding must reach at least the
// non-residual recall@10 at identical M and nprobe.
func TestIVFPQResidualRecallRegression(t *testing.T) {
	build := func(vecs [][]float32, cfg IVFPQConfig) *IVFPQ {
		ix := NewIVFPQ(cfg)
		for _, v := range vecs {
			ix.Add(v, "")
		}
		ix.Train()
		return ix
	}
	// Isotropic fixture of TestIVFPQRecallRegression: residual ≥ raw.
	const dim, n = 32, 2000
	r := rng.New(211)
	vecs := randomUnit(r, n, dim)
	queries := randomUnit(r, 40, dim)
	base := IVFPQConfig{Dim: dim, NList: 32, NProbe: 24, M: 16, Seed: 7}
	raw := build(vecs, base).Recall(vecs, queries, 10)
	resCfg := base
	resCfg.Residual = true
	res := build(vecs, resCfg).Recall(vecs, queries, 10)
	t.Logf("isotropic recall@10: raw=%.3f residual=%.3f", raw, res)
	if res < raw {
		t.Fatalf("residual recall %.3f below non-residual %.3f at same M/nprobe", res, raw)
	}
	// Absolute floor: measured 0.913 when residual encoding landed
	// (raw was 0.885 on this fixture; random unit vectors are
	// clusterless, so the within-cell variance the anchors remove is
	// modest by design — clustered embedding data gains more).
	if res < 0.90 {
		t.Fatalf("residual recall@10 %.3f below regression floor 0.90", res)
	}
}

// TestIVFPQSetNProbeClampedAtTrain is the regression test for the
// pre-train SetNProbe bug: a probe count set before Train survived
// unclamped when Train auto-sized or shrank K, leaving nprobe > nlist.
func TestIVFPQSetNProbeClampedAtTrain(t *testing.T) {
	vecs, keys := conformanceData(100, 8)
	// Auto-sized K: sqrt(100) = 10 cells, requested nprobe 64.
	ix := NewIVFPQ(IVFPQConfig{Dim: 8, M: 4, Seed: 1})
	ix.SetNProbe(64)
	for i, v := range vecs {
		ix.Add(v, keys[i])
	}
	ix.Train()
	if ix.NProbe() > ix.NList() {
		t.Fatalf("IVFPQ nprobe %d survived above auto-sized nlist %d", ix.NProbe(), ix.NList())
	}
	// K shrunk to n: 80 requested cells, 20 vectors.
	ix2 := NewIVFPQ(IVFPQConfig{Dim: 8, NList: 80, M: 4, Seed: 1})
	ix2.SetNProbe(40)
	for i, v := range vecs[:20] {
		ix2.Add(v, keys[i])
	}
	ix2.Train()
	if ix2.NProbe() > ix2.NList() {
		t.Fatalf("IVFPQ nprobe %d survived above shrunk nlist %d", ix2.NProbe(), ix2.NList())
	}
}

// TestPQBytesPerVector pins the acceptance memory claim at the benchmark
// dimension: PQ codes at M=48 store ≤ 1/8 the bytes-per-vector of Flat's
// FP16 (codebook and the one coarse centroid amortised over the benchmark
// row count).
func TestPQBytesPerVector(t *testing.T) {
	const dim, n = 384, 2000
	vecs, keys := parityVectors(t, dim, n)
	pq := NewIVFPQ(IVFPQConfig{Dim: dim, NList: 1, M: 48, Seed: 1})
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
	if !strings.HasPrefix(pqStats.Kind, "IVF-PQ(") || flatStats.Kind != "Flat(FP16)" {
		t.Fatalf("StatsOf kinds: %q %q", pqStats.Kind, flatStats.Kind)
	}
}

// TestStatsOfUntrainedPQ: the stats path must not panic on a
// not-yet-trained quantized index (it reports the staging buffer).
func TestStatsOfUntrainedPQ(t *testing.T) {
	ivfpq := NewIVFPQ(IVFPQConfig{Dim: 8, M: 4})
	ivfpq.Add(make([]float32, 8), "a")
	if st := StatsOf(ivfpq); st.Bytes != 16 {
		t.Fatalf("untrained IVFPQ stats bytes %d, want 16 (FP16 staging)", st.Bytes)
	}
}

// The inverted-file layer (invFile): probe sizing, lifecycle panics, the
// probe-grouped batch scan and seeded training, driven through IVF-PQ.

func TestIVFAutoNListAndNProbe(t *testing.T) {
	r := rng.New(19)
	ix := NewIVFPQ(IVFPQConfig{Dim: 16, M: 4, Seed: 2})
	for _, v := range randomUnit(r, 400, 16) {
		ix.Add(v, "")
	}
	ix.Train()
	if ix.NList() != 20 { // sqrt(400)
		t.Fatalf("auto NList = %d, want 20", ix.NList())
	}
	if ix.NProbe() < 1 {
		t.Fatalf("auto NProbe = %d", ix.NProbe())
	}
}

// TestIVFAddAfterTrain: a trained index refuses Add with a panic before
// it changes anything — Len, keys and results stay those of the build.
func TestIVFAddAfterTrain(t *testing.T) {
	ix, _ := buildIVFPQ(t, 200, 16, 8, 8)
	v := randomUnit(rng.New(23), 1, 16)[0]
	before := ix.Search(v, 5)
	mustPanic(t, "Add after Train", func() { ix.Add(v, "late") })
	if ix.Len() != 200 || len(ix.keys) != 200 {
		t.Fatalf("refused Add grew the index to Len %d, %d keys", ix.Len(), len(ix.keys))
	}
	checkSameResults(t, "after refused Add", ix.Search(v, 5), before)
}

func TestIVFSearchUntrainedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ix := NewIVFPQ(IVFPQConfig{Dim: 8})
	ix.Add(make([]float32, 8), "")
	ix.Search(make([]float32, 8), 1)
}

func TestIVFTrainEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewIVFPQ(IVFPQConfig{Dim: 8}).Train()
}

// TestIVFSearchBatchParity: the probe-grouped batch scan (cell → query
// inversion, parallel cell scans, per-query fold) must equal the
// per-query reference scan for every k regime.
func TestIVFSearchBatchParity(t *testing.T) {
	const dim, n = 48, 1500
	vecs, keys := parityVectors(t, dim, n)
	ix := NewIVFPQ(IVFPQConfig{Dim: dim, NList: 20, NProbe: 5, M: 12, Seed: 5})
	for i, v := range vecs {
		ix.Add(v, keys[i])
	}
	ix.Train()
	queries := randomUnit(rng.New(127), 23, dim)
	for _, k := range []int{1, 10, 1 << 20} {
		batch := ix.SearchBatch(queries, k)
		for qi, q := range queries {
			checkSameResults(t, "ivf batch k="+itoaTest(k), batch[qi], ix.searchReference(q, k))
		}
	}
}

func TestIVFDeterministicTraining(t *testing.T) {
	a, _ := buildIVFPQ(t, 300, 16, 10, 3)
	b, _ := buildIVFPQ(t, 300, 16, 10, 3)
	q := randomUnit(rng.New(29), 1, 16)[0]
	checkSameResults(t, "seeded IVF-PQ training", b.Search(q, 5), a.Search(q, 5))
}

func TestIVFRecallIncreasesWithNProbe(t *testing.T) {
	ix, vecs := buildIVFPQ(t, 800, 32, 20, 1)
	queries := randomUnit(rng.New(13), 30, 32)
	r1 := ix.Recall(vecs, queries, 5)
	ix.SetNProbe(20)
	if rAll := ix.Recall(vecs, queries, 5); r1 > rAll {
		t.Fatalf("recall decreased with more probes: %v > %v", r1, rAll)
	}
}
