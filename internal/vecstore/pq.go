package vecstore

import (
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// Product quantization, the cell storage of IVF-PQ: each vector is split
// into M contiguous subspaces and every subspace is vector-quantized
// independently against its own codebook of up to 256 centroids, so a row
// is stored as M bytes — sub-byte-per-dimension once M < dim. Search is
// asymmetric (ADC): the query stays in full precision and a per-query
// M×ksub look-up table of sub-query·centroid dot products is precomputed,
// after which scoring a row is one table lookup and add per subspace — no
// FP32 decode in the hot loop. See docs/ARCHITECTURE.md for how IVF-PQ
// slots into the index zoo and when to choose it.

const (
	// pqKSubMax is the per-subspace codebook size ceiling; 256 keeps codes
	// at exactly one byte per subspace.
	pqKSubMax = 256
	// pqTrainSampleFactor bounds codebook training cost: at most
	// ksub×pqTrainSampleFactor vectors are sampled for k-means (FAISS's
	// max_points_per_centroid discipline).
	pqTrainSampleFactor = 64
	// pqTrainIters is the default per-subspace k-means iteration cap.
	pqTrainIters = 12
)

// pqConfig parameterises IVF-PQ's product quantizer.
type pqConfig struct {
	Dim int
	// M is the number of subspaces, i.e. code bytes per vector; 0 selects
	// max(1, Dim/8) (8 dims per subspace, the usual FAISS operating point).
	// Clamped to [1, Dim].
	M int
	// TrainIters caps the per-subspace k-means iterations; 0 → 12.
	TrainIters int
	// Seed drives codebook training; fixed seed → bit-identical codes.
	Seed uint64
}

func (cfg *pqConfig) normalize() {
	if cfg.Dim <= 0 {
		panic("vecstore: non-positive dim")
	}
	if cfg.M <= 0 {
		cfg.M = cfg.Dim / 8
	}
	if cfg.M < 1 {
		cfg.M = 1
	}
	if cfg.M > cfg.Dim {
		cfg.M = cfg.Dim
	}
	if cfg.TrainIters <= 0 {
		cfg.TrainIters = pqTrainIters
	}
}

// pqCodebook is a trained product sub-quantizer: M independent codebooks of
// ksub centroids each. Subspace s covers query/vector dimensions
// [bounds[s], bounds[s+1]) (an even split; the first dim%M subspaces are
// one dimension wider), and its centroid c lives at
// cents[blockOff[s]+c*dsub(s) : ...+dsub(s)].
type pqCodebook struct {
	dim      int
	m        int
	ksub     int
	bounds   []int
	blockOff []int
	cents    []float32
}

// newPQCodebook allocates the codebook geometry for dim split into m
// subspaces with ksub centroids each (centroid values left zero).
func newPQCodebook(dim, m, ksub int) *pqCodebook {
	cb := &pqCodebook{
		dim:      dim,
		m:        m,
		ksub:     ksub,
		bounds:   make([]int, m+1),
		blockOff: make([]int, m+1),
	}
	dsub, rem := dim/m, dim%m
	for s := 0; s < m; s++ {
		size := dsub
		if s < rem {
			size++
		}
		cb.bounds[s+1] = cb.bounds[s] + size
		cb.blockOff[s+1] = cb.blockOff[s] + ksub*size
	}
	cb.cents = make([]float32, cb.blockOff[m])
	return cb
}

// dsub returns the width of subspace s.
func (cb *pqCodebook) dsub(s int) int { return cb.bounds[s+1] - cb.bounds[s] }

// centroid returns centroid c of subspace s.
func (cb *pqCodebook) centroid(s, c int) []float32 {
	d := cb.dsub(s)
	off := cb.blockOff[s] + c*d
	return cb.cents[off : off+d]
}

// train fits each subspace's codebook by Euclidean k-means over the
// corresponding sub-vectors of vecs. Training samples at most
// ksub×pqTrainSampleFactor vectors (deterministically, by seeded partial
// shuffle) and runs the M sub-quantizer fits concurrently; each subspace
// has its own derived seed, so results are independent of scheduling.
func (cb *pqCodebook) train(vecs [][]float32, iters int, seed uint64) {
	sample := vecs
	if limit := cb.ksub * pqTrainSampleFactor; len(vecs) > limit {
		sample = samplePQTrainSet(vecs, limit, seed)
	}
	pipeline.For(cb.m, 0, func(s int) {
		d0, d1 := cb.bounds[s], cb.bounds[s+1]
		sub := make([][]float32, len(sample))
		for i, v := range sample {
			sub[i] = v[d0:d1]
		}
		km := &KMeans{
			K:         cb.ksub,
			MaxIter:   iters,
			Seed:      seed + 0x9E3779B9*uint64(s+1),
			Euclidean: true,
		}
		km.Train(sub)
		d := d1 - d0
		for c, cent := range km.Centroids {
			copy(cb.cents[cb.blockOff[s]+c*d:], cent)
		}
	})
}

// samplePQTrainSet picks n distinct vectors by a seeded partial
// Fisher-Yates shuffle (deterministic, order-independent of callers).
func samplePQTrainSet(vecs [][]float32, n int, seed uint64) [][]float32 {
	idx := make([]int, len(vecs))
	for i := range idx {
		idx[i] = i
	}
	r := rng.New(seed)
	out := make([][]float32, n)
	for i := 0; i < n; i++ {
		j := i + r.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = vecs[idx[i]]
	}
	return out
}

// encode writes the M-byte code of vec into dst (nearest centroid per
// subspace by squared Euclidean distance).
func (cb *pqCodebook) encode(vec []float32, dst []byte) {
	for s := 0; s < cb.m; s++ {
		sub := vec[cb.bounds[s]:cb.bounds[s+1]]
		best, bestD := 0, sqDist(sub, cb.centroid(s, 0))
		for c := 1; c < cb.ksub; c++ {
			if d := sqDist(sub, cb.centroid(s, c)); d < bestD {
				best, bestD = c, d
			}
		}
		dst[s] = byte(best)
	}
}

// lutInto fills lut (length m×ksub) with the asymmetric-distance table for
// query q: lut[s*ksub+c] = q[subspace s] · centroid(s,c), accumulated
// sequentially over the subspace's dimensions. Every PQ scoring path
// (lutScore, the reference scan, the reconstruction reference in
// ivfpq_test.go) reproduces exactly this per-subspace accumulation, so all
// of them agree bit-for-bit.
func (cb *pqCodebook) lutInto(lut, q []float32) {
	for s := 0; s < cb.m; s++ {
		qs := q[cb.bounds[s]:cb.bounds[s+1]]
		for c := 0; c < cb.ksub; c++ {
			cent := cb.centroid(s, c)
			var sum float32
			for j, x := range qs {
				sum += x * cent[j]
			}
			lut[s*cb.ksub+c] = sum
		}
	}
}

// shiftLUT writes into dst the per-cell LUT for residual IVF-PQ: entry
// (s,c) of the base residual LUT plus the cell bias q[subspace s]·cent
// [subspace s]. Summing a row's shifted entries therefore yields
// q·centroid(cell) + q·residual̂ — the asymmetric score of the full
// reconstruction — while keeping the scan kernel below the LUT untouched.
// The bias is accumulated sequentially over the subspace's dimensions
// (the lutInto discipline), so every scoring path that reuses this helper
// agrees bit-for-bit.
func (cb *pqCodebook) shiftLUT(dst, base, q, cent []float32) {
	for s := 0; s < cb.m; s++ {
		var bias float32
		for d := cb.bounds[s]; d < cb.bounds[s+1]; d++ {
			bias += q[d] * cent[d]
		}
		off := s * cb.ksub
		for c := 0; c < cb.ksub; c++ {
			dst[off+c] = base[off+c] + bias
		}
	}
}

// lutScore sums a row's LUT entries with the canonical 4-lane tree: lane j
// accumulates subspaces j, j+4, …, the remainder folds into lane 0, and
// the lanes are added left to right. The reconstruction reference in
// ivfpq_test.go mirrors this exactly.
func lutScore(code []byte, lut []float32, ksub int) float32 {
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(code); i += 4 {
		s0 += lut[i*ksub+int(code[i])]
		s1 += lut[(i+1)*ksub+int(code[i+1])]
		s2 += lut[(i+2)*ksub+int(code[i+2])]
		s3 += lut[(i+3)*ksub+int(code[i+3])]
	}
	for ; i < len(code); i++ {
		s0 += lut[i*ksub+int(code[i])]
	}
	return s0 + s1 + s2 + s3
}

// buildLUTs computes one pooled LUT per query in parallel. The returned
// pooled slice must be handed to releaseLUTs when scanning is done.
func buildLUTs(cb *pqCodebook, queries [][]float32) ([][]float32, []*[]float32) {
	luts := make([][]float32, len(queries))
	pooled := make([]*[]float32, len(queries))
	pipeline.For(len(queries), 0, func(i int) {
		lp := getTile(cb.m * cb.ksub)
		cb.lutInto(*lp, queries[i])
		luts[i], pooled[i] = *lp, lp
	})
	return luts, pooled
}

func releaseLUTs(pooled []*[]float32) {
	for _, lp := range pooled {
		putTile(lp)
	}
}

// recallAgainstOriginals is recallAgainst with the exact side an FP16
// Flat scan of originals, the full-precision vectors a quantized index
// was built from (row i of originals is id i). It returns 0 for no
// queries or when originals does not cover every id.
func recallAgainstOriginals(approx Index, originals [][]float32, queries [][]float32, k int) float64 {
	if len(queries) == 0 || len(originals) != approx.Len() {
		return 0
	}
	flat := NewFlat(approx.Dim())
	for i, v := range originals {
		flat.Add(v, approx.Key(i))
	}
	return recallAgainst(flat, approx, queries, k)
}

// recallAgainst returns the average fraction of exact's top-k ids that
// approx's top-k also returns, over the queries.
func recallAgainst(exact, approx Index, queries [][]float32, k int) float64 {
	var hits, total int
	for _, q := range queries {
		got := map[int]bool{}
		for _, r := range approx.Search(q, k) {
			got[r.ID] = true
		}
		for _, r := range exact.Search(q, k) {
			total++
			if got[r.ID] {
				hits++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
