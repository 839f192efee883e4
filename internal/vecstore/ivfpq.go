package vecstore

import (
	"fmt"
	"time"

	"repro/internal/f16"
)

// IVFPQ composes the inverted-file coarse quantizer with product-quantized
// cell storage (FAISS IndexIVFPQ). Two encodings are supported:
//
//   - raw (the default): codes quantize the original vectors against one
//     codebook shared by all cells, so one LUT per query serves every
//     probed cell (LUT construction O(M·ksub) per query).
//   - residual (Residual: true): codes quantize vec − anchor(cell), the
//     FAISS discipline adapted to the spherical coarse quantizer. The
//     anchor is the cell's arithmetic mean, not its unit-normalised
//     routing centroid: the mean minimises within-cell residual energy
//     (variance decomposition), whereas subtracting a unit centroid can
//     *grow* weakly-clustered vectors (‖x−c‖² = 2−2·x·c > 1 whenever
//     x·c < ½). Residuals are therefore strictly lower-energy than raw
//     vectors, so the same M buys higher recall; the price is a
//     per-probed-cell LUT shift (O(dim + M·ksub) per cell, see
//     pqCodebook.shiftLUT) before the unchanged scan kernel runs.
//
// An optional OPQ rotation (OPQ: true) — a learned orthonormal matrix
// applied to vectors at encode time and to queries before LUT
// construction — decorrelates the subspace split first (see learnOPQ).
// Rotation preserves inner products, so scores remain comparable with the
// exact scan. A query scans only the NProbe nearest cells, and each
// probed cell is an M-byte-per-row LUT scan, so both the scanned-row
// count and the bytes-per-row shrink relative to Flat. The
// recall/latency/memory trade-off is pinned by the IVF-PQ recall
// regression tests.
type IVFPQ struct {
	invFile
	dim      int
	pqCfg    PQConfig
	cb       *pqCodebook
	keys     []string
	residual bool
	// anchors[c] is the arithmetic mean of cell c's (rotated) vectors,
	// the point residual codes are relative to. Only set under residual
	// encoding; routing always uses the spherical km centroids.
	anchors  [][]float32
	rot      []float32 // OPQ rotation, row-major dim×dim; nil when unused
	opqIters int
	// staged buffers codes contiguously in insertion order until Train.
	staged []uint16
	// After Train: per-cell contiguous PQ code blocks.
	cellCodes [][]byte
}

// IVFPQConfig parameterises IVF-PQ construction.
type IVFPQConfig struct {
	Dim    int
	NList  int    // number of cells; 0 → sqrt(n) at Train time
	NProbe int    // cells scanned per query; 0 → max(1, NList/16)
	M      int    // PQ subspaces (code bytes per vector); 0 → max(1, Dim/8)
	Seed   uint64 // quantizer and codebook training seed
	// Residual encodes vec − centroid(cell) instead of the raw vector:
	// higher recall at the same M, at a per-probed-cell LUT-shift cost.
	Residual bool
	// OPQ learns an orthonormal rotation (applied to vectors at encode
	// time and queries at LUT time) before the subspace split. Usually
	// combined with Residual.
	OPQ bool
	// OPQIters caps the PQ-fit/rotation-update alternations; 0 → 8.
	OPQIters int
}

// NewIVFPQ returns an untrained IVF-PQ index. Vectors may be added before
// training; Train must be called before Search.
func NewIVFPQ(cfg IVFPQConfig) *IVFPQ {
	pqCfg := PQConfig{Dim: cfg.Dim, M: cfg.M, Seed: cfg.Seed}
	pqCfg.normalize()
	ix := &IVFPQ{
		invFile:  newInvFile(cfg.NList, cfg.NProbe, cfg.Seed),
		dim:      cfg.Dim,
		pqCfg:    pqCfg,
		residual: cfg.Residual,
		opqIters: cfg.OPQIters,
	}
	if cfg.OPQ {
		ix.rot = identityRot(cfg.Dim) // replaced by the learned rotation at Train
	}
	return ix
}

// Add implements Index. Vectors added after training are encoded and
// routed to their cell immediately; before training they are only
// buffered. The post-train path encodes into the tail of the cell's
// contiguous code block (no per-insert code buffer).
func (ix *IVFPQ) Add(vec []float32, key string) int {
	if len(vec) != ix.dim {
		panic(fmt.Sprintf("vecstore: Add dim %d to IVFPQ of dim %d", len(vec), ix.dim))
	}
	id := len(ix.keys)
	ix.keys = append(ix.keys, key)
	if !ix.trained {
		ix.staged = f16.AppendEncoded(ix.staged, vec)
		return id
	}
	v := vec
	var vp *[]float32
	if ix.rot != nil {
		vp = getTile(ix.dim)
		applyRot(*vp, ix.rot, vec)
		v = *vp
	}
	c := ix.route(v, id)
	enc := v
	var rp *[]float32
	if ix.residual {
		rp = getTile(ix.dim)
		anchor := ix.anchors[c]
		for d, x := range v {
			(*rp)[d] = x - anchor[d]
		}
		enc = *rp
	}
	codes := ix.cellCodes[c]
	tail := len(codes)
	for i := 0; i < ix.cb.m; i++ {
		codes = append(codes, 0)
	}
	ix.cb.encode(enc, codes[tail:])
	ix.cellCodes[c] = codes
	if rp != nil {
		putTile(rp)
	}
	if vp != nil {
		putTile(vp)
	}
	return id
}

// Train fits the coarse quantizer and the PQ codebook on all buffered
// vectors (learning the OPQ rotation first when configured), then encodes
// every vector — or its cell residual — into its cell's contiguous code
// block. It panics if the index is empty.
func (ix *IVFPQ) Train() {
	n := len(ix.keys)
	if n == 0 {
		panic("vecstore: Train on empty IVFPQ")
	}
	full := make([][]float32, n)
	for i := range full {
		full[i] = f16.Decode(ix.staged[i*ix.dim : (i+1)*ix.dim])
	}
	ksub := pqKSubMax
	if ksub > n {
		ksub = n
	}
	if ix.rot != nil {
		ix.rot = learnOPQ(full, ix.dim, ix.pqCfg.M, ksub, ix.pqCfg.TrainIters, ix.opqIters, ix.pqCfg.Seed)
		rotated := make([][]float32, n)
		parallelFor(n, 0, func(i int) {
			rotated[i] = make([]float32, ix.dim)
			applyRot(rotated[i], ix.rot, full[i])
		})
		full = rotated
	}
	assign := ix.train(full)
	// The codebook is fit on — and codes quantize — either the (rotated)
	// vectors or their residuals against the per-cell mean anchor.
	enc := full
	if ix.residual {
		ix.anchors = make([][]float32, ix.km.K)
		for c, ids := range ix.cellIDs {
			a := make([]float32, ix.dim)
			ix.anchors[c] = a
			if len(ids) == 0 {
				// No mass to average; anchor at the routing centroid so a
				// post-train Add landing here still gets a sane residual.
				copy(a, ix.km.Centroids[c])
				continue
			}
			for _, id := range ids {
				for d, x := range full[id] {
					a[d] += x
				}
			}
			inv := 1 / float32(len(ids))
			for d := range a {
				a[d] *= inv
			}
		}
		res := make([][]float32, n)
		parallelFor(n, 0, func(id int) {
			anchor := ix.anchors[assign[id]]
			r := make([]float32, ix.dim)
			for d, x := range full[id] {
				r[d] = x - anchor[d]
			}
			res[id] = r
		})
		enc = res
	}
	ix.cb = newPQCodebook(ix.dim, ix.pqCfg.M, ksub)
	ix.cb.train(enc, ix.pqCfg.TrainIters, ix.pqCfg.Seed)
	codes := make([]byte, n*ix.cb.m)
	parallelFor(n, 0, func(id int) {
		ix.cb.encode(enc[id], codes[id*ix.cb.m:(id+1)*ix.cb.m])
	})
	ix.cellCodes = cellBlocks(ix.cellIDs, codes, ix.cb.m)
	ix.staged = nil
	ix.trained = true
}

// M returns the number of PQ subspaces (code bytes per vector).
func (ix *IVFPQ) M() int { return ix.pqCfg.M }

// Residual reports whether codes quantize per-cell residuals.
func (ix *IVFPQ) Residual() bool { return ix.residual }

// OPQ reports whether a learned rotation is applied before encoding.
func (ix *IVFPQ) OPQ() bool { return ix.rot != nil }

// Variant names the encoding variant for stats and reports: "" (raw),
// "res", "opq", or "res+opq".
func (ix *IVFPQ) Variant() string {
	switch {
	case ix.residual && ix.rot != nil:
		return "res+opq"
	case ix.residual:
		return "res"
	case ix.rot != nil:
		return "opq"
	}
	return ""
}

// Len implements Index.
func (ix *IVFPQ) Len() int { return len(ix.keys) }

// Dim implements Index.
func (ix *IVFPQ) Dim() int { return ix.dim }

// Key returns the metadata key for id.
func (ix *IVFPQ) Key(id int) string { return ix.keys[id] }

// Search implements Index as a one-query SearchBatch.
func (ix *IVFPQ) Search(query []float32, k int) []Result {
	return ix.searchBatch([][]float32{query}, k, nil)[0]
}

// SearchBatch implements Index: base LUTs are built once per query (the
// batch amortisation), queries are grouped by probed cell, and cells are
// scanned in parallel. Under residual encoding each query's base LUT is
// shifted by the probed cell's bias first (shiftLUT); the scan kernel
// itself is unchanged.
func (ix *IVFPQ) SearchBatch(queries [][]float32, k int) [][]Result {
	return ix.searchBatch(queries, k, nil)
}

// searchBatch rotates the queries into code space (OPQ), builds their base
// LUTs, and scans each probed cell's codes for its queries through the PQ
// LUT kernel; both preludes are booked under Scan.
func (ix *IVFPQ) searchBatch(queries [][]float32, k int, tm *ScanTiming) [][]Result {
	if !ix.trained {
		panic("vecstore: Search on untrained IVFPQ")
	}
	checkBatchDims(queries, ix.dim)
	if k <= 0 || len(queries) == 0 {
		return make([][]Result, len(queries))
	}
	start := time.Now()
	qs := queries
	if ix.rot != nil {
		qs = make([][]float32, len(queries))
		parallelFor(len(queries), 0, func(qi int) {
			qs[qi] = make([]float32, ix.dim)
			applyRot(qs[qi], ix.rot, queries[qi])
		})
	}
	luts, pooled := buildLUTs(ix.cb, qs)
	defer releaseLUTs(pooled)
	return ix.searchCells(qs, k, ix.keys, start, tm, func(c int, qis []int32, hs []*topK) {
		var cp *[]float32
		if ix.residual {
			cp = getTile(ix.cb.m * ix.cb.ksub)
			defer putTile(cp)
		}
		for i, qi := range qis {
			lut := luts[qi]
			if cp != nil {
				ix.cb.shiftLUT(*cp, lut, qs[qi], ix.anchors[c])
				lut = *cp
			}
			scanPQTopK(ix.cellCodes[c], ix.cb, lut, hs[i], ix.cellIDs[c], 0)
		}
	})
}

// searchReference is the retained reference scalar scan over the probed
// cells, one row at a time with no pooling or parallelism (see
// pq_test.go). It reuses the same rotation / base-LUT / shiftLUT helpers
// as Search, so the kernel must reproduce it bit-for-bit.
func (ix *IVFPQ) searchReference(query []float32, k int) []Result {
	if !ix.trained {
		panic("vecstore: Search on untrained IVFPQ")
	}
	if len(query) != ix.dim {
		panic("vecstore: Search dim mismatch")
	}
	if k <= 0 {
		return nil
	}
	q := query
	if ix.rot != nil {
		q = make([]float32, ix.dim)
		applyRot(q, ix.rot, query)
	}
	probes := ix.km.NearestN(q, ix.nprobe)
	lut := make([]float32, ix.cb.m*ix.cb.ksub)
	ix.cb.lutInto(lut, q)
	cellLUT := lut
	if ix.residual {
		cellLUT = make([]float32, len(lut))
	}
	h := newTopK(k)
	m := ix.cb.m
	for _, c := range probes {
		if ix.residual {
			if len(ix.cellIDs[c]) == 0 {
				continue
			}
			ix.cb.shiftLUT(cellLUT, lut, q, ix.anchors[c])
		}
		block := ix.cellCodes[c]
		for row, id := range ix.cellIDs[c] {
			h.push(id, lutScore(block[row*m:(row+1)*m], cellLUT, ix.cb.ksub))
		}
	}
	return h.results(ix.keys)
}

// MemoryBytes reports code storage (M bytes/vector) plus the PQ codebook,
// coarse centroids, residual anchors, and OPQ rotation; before Train it
// reports the FP16 staging buffer.
func (ix *IVFPQ) MemoryBytes() int64 {
	if !ix.trained {
		return int64(2 * len(ix.staged))
	}
	b := int64(len(ix.keys)*ix.cb.m) + int64(4*len(ix.cb.cents)) +
		int64(4*ix.km.K*ix.dim) + int64(4*len(ix.rot))
	if ix.anchors != nil {
		b += int64(4 * ix.km.K * ix.dim)
	}
	return b
}

// Recall measures IVF-PQ ranking fidelity against an exact FP16 scan of
// the original full-precision vectors, when those are provided. Used by
// the recall regression test to pin the coarse-probe + quantization
// trade-off. Rotation is an internal detail (it preserves inner
// products), so originals are compared unrotated.
func (ix *IVFPQ) Recall(originals [][]float32, queries [][]float32, k int) float64 {
	return recallAgainstOriginals(ix, originals, queries, k)
}
