package vecstore

import (
	"runtime"
	"testing"

	"repro/internal/rng"
)

// Parity suite: the blocked, segment-parallel, pooled scan kernel must
// reproduce the retained reference scalar scan bit-for-bit — identical ids,
// bit-identical float32 scores, identical order — across dimensions
// (including tile remainders and dim=1), k regimes (k=1, k=10, k>n), and
// index kinds (Flat, the memtable; IVF-PQ's LUT scan has its own suite in
// ivfpq_test.go). This is the acceptance gate for the contiguous-layout
// rewrite: any kernel change that reorders accumulation or breaks the
// total order of the top-k heap fails here.

var (
	parityDims = []int{1, 7, 384}
	parityKs   = []int{1, 10, 1 << 20} // 1<<20 > n exercises the k>n clamp
)

func checkSameResults(t *testing.T, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d: got {id %d score %x key %q}, want {id %d score %x key %q}",
				label, i,
				got[i].ID, got[i].Score, got[i].Key,
				want[i].ID, want[i].Score, want[i].Key)
		}
	}
}

func parityVectors(t *testing.T, dim, n int) ([][]float32, []string) {
	t.Helper()
	r := rng.New(uint64(dim)*1000 + uint64(n))
	vecs := randomUnit(r, n, dim)
	keys := make([]string, n)
	for i := range keys {
		keys[i] = "k" + itoaTest(i)
	}
	return vecs, keys
}

func itoaTest(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestFlatKernelParity(t *testing.T) {
	for _, dim := range parityDims {
		// n above 2×segmentMinRows for dim 1 and 7 so the segment-parallel
		// path engages; smaller for dim 384 to keep the test quick (the
		// parallel 384 case is covered by TestFlatKernelParityParallel).
		n := 3000
		if dim < 64 {
			n = 3*segmentMinRows + 37
		}
		vecs, keys := parityVectors(t, dim, n)
		ix := NewFlat(dim)
		for i, v := range vecs {
			ix.Add(v, keys[i])
		}
		r := rng.New(99)
		for _, k := range parityKs {
			for trial := 0; trial < 5; trial++ {
				q := randomUnit(r, 1, dim)[0]
				want := ix.searchReference(q, k)
				got := ix.Search(q, k)
				checkSameResults(t, "flat dim="+itoaTest(dim)+" k="+itoaTest(k), got, want)
			}
		}
	}
}

func TestFlatKernelParityParallel(t *testing.T) {
	const dim = 384
	n := 2*segmentMinRows + scanTileRows/2 // parallel path + ragged tail tile
	vecs, keys := parityVectors(t, dim, n)
	ix := NewFlat(dim)
	for i, v := range vecs {
		ix.Add(v, keys[i])
	}
	r := rng.New(101)
	for trial := 0; trial < 3; trial++ {
		q := randomUnit(r, 1, dim)[0]
		checkSameResults(t, "flat parallel", ix.Search(q, 10), ix.searchReference(q, 10))
	}
}

// TestFlatKernelParityOddRows runs the unpaired last FP16 row inside the
// last parallel segment, single-query and batched.
func TestFlatKernelParityOddRows(t *testing.T) {
	const dim = 384
	n := 2*segmentMinRows + scanTileRows/2 + 1
	vecs, keys := parityVectors(t, dim, n)
	ix := NewFlat(dim)
	for i, v := range vecs {
		ix.Add(v, keys[i])
	}
	if workers := scanSegments(n, 1); workers < 2 && runtime.GOMAXPROCS(0) >= 2 {
		t.Fatalf("n=%d scans in %d segment(s), want the parallel path", n, workers)
	}
	queries := randomUnit(rng.New(102), 3, dim)
	for _, q := range queries {
		checkSameResults(t, "flat odd rows", ix.Search(q, 10), ix.searchReference(q, 10))
	}
	for qi, res := range ix.SearchBatch(queries, 10) {
		checkSameResults(t, "flat odd rows batch", res, ix.searchReference(queries[qi], 10))
	}
}

func TestFlatSearchIntoReusesBuffer(t *testing.T) {
	const dim, n = 32, 500
	vecs, keys := parityVectors(t, dim, n)
	ix := NewFlat(dim)
	for i, v := range vecs {
		ix.Add(v, keys[i])
	}
	r := rng.New(103)
	queries := randomUnit(r, 10, dim)
	var dst []Result
	for _, q := range queries {
		dst = ix.SearchInto(q, 5, dst)
		checkSameResults(t, "SearchInto", dst, ix.searchReference(q, 5))
	}
}

func TestFlatSearchIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool is deliberately lossy under -race; zero-alloc steady state not observable")
	}
	const dim, n = 64, 1000 // below the parallel threshold: serial kernel
	vecs, keys := parityVectors(t, dim, n)
	ix := NewFlat(dim)
	for i, v := range vecs {
		ix.Add(v, keys[i])
	}
	q := randomUnit(rng.New(107), 1, dim)[0]
	dst := make([]Result, 0, 16)
	// Warm the pools.
	dst = ix.SearchInto(q, 10, dst)
	allocs := testing.AllocsPerRun(100, func() {
		dst = ix.SearchInto(q, 10, dst)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SearchInto allocates %.1f objects/op, want 0", allocs)
	}
}

func TestFlatSearchBatchParity(t *testing.T) {
	for _, dim := range parityDims {
		n := 2000
		if dim < 64 {
			n = segmentMinRows + 13
		}
		vecs, keys := parityVectors(t, dim, n)
		ix := NewFlat(dim)
		for i, v := range vecs {
			ix.Add(v, keys[i])
		}
		all := randomUnit(rng.New(109), 17, dim)
		for _, nq := range []int{1, 2, 3, 17} {
			queries := all[:nq]
			for _, k := range parityKs {
				batch := ix.SearchBatch(queries, k)
				if len(batch) != len(queries) {
					t.Fatalf("dim=%d: %d batch results", dim, len(batch))
				}
				for qi, q := range queries {
					checkSameResults(t, "batch dim="+itoaTest(dim)+" nq="+itoaTest(nq)+" k="+itoaTest(k),
						batch[qi], ix.searchReference(q, k))
				}
			}
		}
	}
}

// TestMemtableOddRowsParity checks a memtable with an odd row count
// against the reference scan of a Flat over the same vectors.
func TestMemtableOddRowsParity(t *testing.T) {
	const dim, n = 384, 3*scanTileRows + 1
	vecs, keys := parityVectors(t, dim, n)
	mt, ref := NewMemtable(dim), NewFlat(dim)
	for i, v := range vecs {
		mt.Add(v, keys[i])
		ref.Add(v, keys[i])
	}
	queries := randomUnit(rng.New(121), 2, dim)
	batch := mt.SearchBatch(queries, 10)
	for qi, q := range queries {
		want := ref.searchReference(q, 10)
		checkSameResults(t, "memtable odd rows", mt.Search(q, 10), want)
		checkSameResults(t, "memtable odd rows batch", batch[qi], want)
	}
}

// TestVectorInto checks the allocation-free decode path against Vector.
func TestVectorInto(t *testing.T) {
	const dim = 24
	vecs, keys := parityVectors(t, dim, 10)
	ix := NewFlat(dim)
	for i, v := range vecs {
		ix.Add(v, keys[i])
	}
	buf := make([]float32, dim)
	for id := 0; id < ix.Len(); id++ {
		ix.VectorInto(buf, id)
		want := ix.Vector(id)
		for d := range buf {
			if buf[d] != want[d] {
				t.Fatalf("VectorInto id %d dim %d: %v vs %v", id, d, buf[d], want[d])
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, func() { ix.VectorInto(buf, 3) }); allocs != 0 {
		t.Fatalf("VectorInto allocates %.1f objects/op", allocs)
	}
}
