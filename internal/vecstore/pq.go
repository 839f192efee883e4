package vecstore

import (
	"fmt"
	"time"

	"repro/internal/f16"
	"repro/internal/rng"
)

// Product quantization (FAISS IndexPQ equivalent): each vector is split
// into M contiguous subspaces and every subspace is vector-quantized
// independently against its own codebook of up to 256 centroids, so a row
// is stored as M bytes — sub-byte-per-dimension once M < dim. Search is
// asymmetric (ADC): the query stays in full precision and a per-query
// M×ksub look-up table of sub-query·centroid dot products is precomputed,
// after which scoring a row is one table lookup and add per subspace — no
// FP32 decode in the hot loop. See docs/ARCHITECTURE.md for how PQ slots
// into the index zoo and when to choose it.

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

// PQConfig parameterises product-quantizer construction.
type PQConfig struct {
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

func (cfg *PQConfig) normalize() {
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
	parallelFor(cb.m, 0, func(s int) {
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

// opqTrainIters is the default number of PQ-fit / rotation-update
// alternations when learning an OPQ rotation.
const opqTrainIters = 8

// learnOPQ fits an orthonormal rotation that decorrelates and balances
// the subspace split before product quantization (OPQ, Ge et al.): it
// alternates (1) fitting a PQ codebook to the rotated training sample and
// (2) solving the orthogonal-Procrustes problem min_R Σ‖R·x − x̂‖² for the
// current reconstructions x̂ (polar factor of Σ x̂·xᵀ, see kmeans.go). The
// rotation is learned against a plain-PQ proxy — the FAISS OPQMatrix
// discipline — and then applied ahead of whatever index (PQ or residual
// IVF-PQ) uses it. Returns the identity when no update improves on it
// (degenerate data). Deterministic for a fixed seed.
func learnOPQ(vecs [][]float32, dim, m, ksub, pqIters, opqIters int, seed uint64) []float32 {
	if opqIters <= 0 {
		opqIters = opqTrainIters
	}
	sample := vecs
	if limit := ksub * pqTrainSampleFactor; len(vecs) > limit {
		sample = samplePQTrainSet(vecs, limit, seed)
	}
	rot := identityRot(dim)
	rotated := make([][]float32, len(sample))
	for i := range rotated {
		rotated[i] = make([]float32, dim)
	}
	recon := make([]float32, dim)
	code := make([]byte, m)
	corr := make([]float32, dim*dim)
	// Each iteration is one fit/update pair; the codebook informing the
	// last rotation update is discarded, because the caller refits its own
	// codebook on the finally-rotated data.
	for iter := 0; iter < opqIters; iter++ {
		parallelFor(len(sample), 0, func(i int) {
			applyRot(rotated[i], rot, sample[i])
		})
		cb := newPQCodebook(dim, m, ksub)
		cb.train(rotated, pqIters, seed+uint64(iter))
		// corr = Σ x̂·xᵀ over the sample (x̂ in rotated space, x original).
		for i := range corr {
			corr[i] = 0
		}
		for i, x := range sample {
			cb.encode(rotated[i], code)
			cb.decodeInto(recon, code)
			for r, xr := range recon {
				if xr == 0 {
					continue
				}
				row := corr[r*dim : (r+1)*dim]
				for c, xc := range x {
					row[c] += xr * xc
				}
			}
		}
		next := polarOrthonormal(corr, dim)
		if next == nil {
			break // rank-deficient update; keep the current rotation
		}
		rot = next
	}
	return rot
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

// decodeInto reconstructs the approximation encoded by code into dst.
func (cb *pqCodebook) decodeInto(dst []float32, code []byte) {
	for s, c := range code {
		copy(dst[cb.bounds[s]:cb.bounds[s+1]], cb.centroid(s, int(c)))
	}
}

// lutInto fills lut (length m×ksub) with the asymmetric-distance table for
// query q: lut[s*ksub+c] = q[subspace s] · centroid(s,c), accumulated
// sequentially over the subspace's dimensions. Every PQ scoring path
// (lutScore, the reference scans, the reconstruction reference in
// pq_test.go) reproduces exactly this per-subspace accumulation, so all of
// them agree bit-for-bit.
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
// pq_test.go mirrors this exactly.
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

// PQ is a product-quantized exact-scan index (FAISS IndexPQ): every row is
// scanned, but rows are M-byte codes scored through the per-query LUT.
// Vectors are staged as FP16 until Train, which fits the codebooks and
// encodes all staged rows. Add after Train panics.
type PQ struct {
	dim     int
	cfg     PQConfig
	cb      *pqCodebook
	staged  []uint16 // contiguous FP16 staging until Train
	codes   []byte   // row i at codes[i*m:(i+1)*m] after Train
	keys    []string
	trained bool
}

// NewPQ returns an empty product-quantized index.
func NewPQ(cfg PQConfig) *PQ {
	cfg.normalize()
	return &PQ{dim: cfg.Dim, cfg: cfg}
}

// Add implements Index (staging vectors until Train).
func (ix *PQ) Add(vec []float32, key string) int {
	if len(vec) != ix.dim {
		panic(fmt.Sprintf("vecstore: Add dim %d to PQ of dim %d", len(vec), ix.dim))
	}
	if ix.trained {
		panic("vecstore: PQ Add after Train")
	}
	ix.staged = f16.AppendEncoded(ix.staged, vec)
	ix.keys = append(ix.keys, key)
	return len(ix.keys) - 1
}

// Train fits the sub-quantizer codebooks on the staged vectors and encodes
// every row into the contiguous code block. The codebook size is
// min(256, n); training is deterministic given the config seed.
func (ix *PQ) Train() {
	n := len(ix.keys)
	if n == 0 {
		panic("vecstore: Train on empty PQ")
	}
	full := make([][]float32, n)
	for i := range full {
		full[i] = f16.Decode(ix.staged[i*ix.dim : (i+1)*ix.dim])
	}
	ksub := pqKSubMax
	if ksub > n {
		ksub = n
	}
	ix.cb = newPQCodebook(ix.dim, ix.cfg.M, ksub)
	ix.cb.train(full, ix.cfg.TrainIters, ix.cfg.Seed)
	ix.codes = make([]byte, n*ix.cb.m)
	parallelFor(n, 0, func(i int) {
		ix.cb.encode(full[i], ix.codes[i*ix.cb.m:(i+1)*ix.cb.m])
	})
	ix.staged = nil
	ix.trained = true
}

// Trained reports whether codebooks and codes have been built.
func (ix *PQ) Trained() bool { return ix.trained }

// Len implements Index.
func (ix *PQ) Len() int { return len(ix.keys) }

// Dim implements Index.
func (ix *PQ) Dim() int { return ix.dim }

// M returns the number of subspaces (code bytes per vector).
func (ix *PQ) M() int { return ix.cfg.M }

// Key returns the metadata key for id.
func (ix *PQ) Key(id int) string { return ix.keys[id] }

// Reconstruct returns the quantized approximation stored for id (the
// concatenation of its selected centroids) — PQ cannot recover the
// original vector.
func (ix *PQ) Reconstruct(id int) []float32 {
	if !ix.trained {
		panic("vecstore: PQ Reconstruct before Train")
	}
	out := make([]float32, ix.dim)
	ix.cb.decodeInto(out, ix.codes[id*ix.cb.m:(id+1)*ix.cb.m])
	return out
}

// Search implements Index as a one-query SearchBatch.
func (ix *PQ) Search(query []float32, k int) []Result {
	return ix.searchBatch([][]float32{query}, k, nil)[0]
}

// SearchBatch implements Index: all LUTs are built up front (in parallel),
// amortising table construction across the batch, and every code segment
// a worker streams is scored against the whole batch.
func (ix *PQ) SearchBatch(queries [][]float32, k int) [][]Result {
	return ix.searchBatch(queries, k, nil)
}

// searchBatch runs the segment-parallel LUT scan over the code block; LUT
// construction is booked under Scan.
func (ix *PQ) searchBatch(queries [][]float32, k int, tm *ScanTiming) [][]Result {
	if !ix.trained {
		panic("vecstore: PQ Search before Train")
	}
	checkBatchDims(queries, ix.dim)
	if k <= 0 || len(ix.keys) == 0 || len(queries) == 0 {
		return make([][]Result, len(queries))
	}
	start := time.Now()
	luts, pooled := buildLUTs(ix.cb, queries)
	defer releaseLUTs(pooled)
	m := ix.cb.m
	return searchSegments(len(ix.keys), len(queries), k, ix.keys, start, tm, func(r0, r1 int, hs []*topK) {
		scanPQBatchTopK(ix.codes[r0*m:r1*m], ix.cb, luts, hs, nil, r0)
	})
}

// buildLUTs computes one pooled LUT per query in parallel. The returned
// pooled slice must be handed to releaseLUTs when scanning is done.
func buildLUTs(cb *pqCodebook, queries [][]float32) ([][]float32, []*[]float32) {
	luts := make([][]float32, len(queries))
	pooled := make([]*[]float32, len(queries))
	parallelFor(len(queries), 0, func(i int) {
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

// searchReference is the retained reference scalar scan: build the LUT,
// score one row at a time, no pooling, no parallelism (see parity_test.go
// and pq_test.go).
func (ix *PQ) searchReference(query []float32, k int) []Result {
	if !ix.trained {
		panic("vecstore: PQ Search before Train")
	}
	if len(query) != ix.dim {
		panic("vecstore: Search dim mismatch")
	}
	if k <= 0 || len(ix.keys) == 0 {
		return nil
	}
	lut := make([]float32, ix.cb.m*ix.cb.ksub)
	ix.cb.lutInto(lut, query)
	h := newTopK(k)
	m := ix.cb.m
	for id := 0; id < len(ix.keys); id++ {
		h.push(id, lutScore(ix.codes[id*m:(id+1)*m], lut, ix.cb.ksub))
	}
	return h.results(ix.keys)
}

// MemoryBytes reports code storage (M bytes/vector) plus the codebook;
// before Train it reports the FP16 staging buffer.
func (ix *PQ) MemoryBytes() int64 {
	if !ix.trained {
		return int64(2 * len(ix.staged))
	}
	return int64(len(ix.codes)) + int64(4*len(ix.cb.cents))
}

// Recall measures PQ ranking fidelity against an exact FP16 scan of the
// original full-precision vectors, when those are provided.
func (ix *PQ) Recall(originals [][]float32, queries [][]float32, k int) float64 {
	return recallAgainstOriginals(ix, originals, queries, k)
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
