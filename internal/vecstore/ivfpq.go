package vecstore

import (
	"fmt"
	"math"
	"time"

	"repro/internal/f16"
	"repro/internal/pipeline"
)

// invFile is IVFPQ's inverted-file layer: the spherical coarse quantizer,
// the probe count, each cell's id postings, and the probe-grouped batch
// scan over them. IVFPQ embeds it and keeps only its per-cell code blocks
// (row j of cell block c belongs to insertion id cellIDs[c][j]) and the
// scorer for one cell.
type invFile struct {
	km      *KMeans
	nprobe  int
	cellIDs [][]int
	trained bool
}

func newInvFile(nlist, nprobe int, seed uint64) invFile {
	return invFile{km: &KMeans{K: nlist, Seed: seed}, nprobe: nprobe}
}

// train sizes the coarse quantizer for n = len(vecs) rows — NList 0
// becomes sqrt(n), NList is clamped to n, NProbe 0 becomes max(1,
// NList/16) and a larger NProbe is clamped to NList — fits it on vecs, and
// buckets every row into its nearest cell's postings in insertion order.
// It returns each row's cell.
func (ix *invFile) train(vecs [][]float32) []int {
	n := len(vecs)
	if ix.km.K <= 0 {
		ix.km.K = max(1, int(math.Sqrt(float64(n))))
	}
	ix.km.K = min(ix.km.K, n)
	if ix.nprobe <= 0 {
		ix.nprobe = max(1, ix.km.K/16)
	} else if ix.nprobe > ix.km.K {
		// A SetNProbe before Train may exceed an auto-sized or shrunk K.
		ix.nprobe = ix.km.K
	}
	ix.km.Train(vecs)
	assign := make([]int, n)
	pipeline.For(n, 0, func(id int) {
		assign[id] = ix.km.Nearest(vecs[id])
	})
	counts := make([]int, ix.km.K)
	for _, c := range assign {
		counts[c]++
	}
	ix.cellIDs = make([][]int, ix.km.K)
	for c, cnt := range counts {
		ix.cellIDs[c] = make([]int, 0, cnt)
	}
	for id, c := range assign {
		ix.cellIDs[c] = append(ix.cellIDs[c], id)
	}
	return assign
}

// cellBlocks packs each cell's rows, in posting order, into one contiguous
// block: block c is the stride-wide rows codes[id*stride:(id+1)*stride]
// of the ids in cellIDs[c].
func cellBlocks(cellIDs [][]int, codes []byte, stride int) [][]byte {
	blocks := make([][]byte, len(cellIDs))
	for c, ids := range cellIDs {
		b := make([]byte, 0, len(ids)*stride)
		for _, id := range ids {
			b = append(b, codes[id*stride:(id+1)*stride]...)
		}
		blocks[c] = b
	}
	return blocks
}

// SetNProbe adjusts the number of cells scanned per query (recall knob).
// Values set before Train are re-clamped when Train sizes the cell count.
func (ix *invFile) SetNProbe(n int) {
	if n < 1 {
		n = 1
	}
	if ix.trained && n > ix.km.K {
		n = ix.km.K
	}
	ix.nprobe = n
}

// NProbe returns the current probe count.
func (ix *invFile) NProbe() int { return ix.nprobe }

// NList returns the number of cells (0 before training when auto-sized).
func (ix *invFile) NList() int { return ix.km.K }

// searchCells is the probe-grouped batch scan: each query's nprobe nearest
// cells are found, queries are grouped by probed cell so every non-empty
// cell is scanned once, in parallel, for all the queries probing it, and
// each query's partial heaps are folded into its results. scanCell scores
// cell c for queries qis into hs (hs[i] for query qis[i]). A query whose
// probed cells are all empty gets a non-nil empty slice, as Search always
// returned. A non-nil tm receives Scan from start — the caller's per-batch
// pre-work — through the cell scans, and Merge for the per-query folds.
func (ix *invFile) searchCells(qs [][]float32, k int, keys []string, start time.Time, tm *ScanTiming, scanCell func(c int, qis []int32, hs []*topK)) [][]Result {
	probes := make([][]int, len(qs))
	pipeline.For(len(qs), 0, func(qi int) {
		probes[qi] = ix.km.NearestN(qs[qi], ix.nprobe)
	})
	// Invert: cell → indices of the queries probing it.
	perCell := make([][]int32, ix.km.K)
	for qi, ps := range probes {
		for _, c := range ps {
			perCell[c] = append(perCell[c], int32(qi))
		}
	}
	work := make([]int, 0, ix.km.K)
	for c, qis := range perCell {
		if len(qis) > 0 && len(ix.cellIDs[c]) > 0 {
			work = append(work, c)
		}
	}
	partial := make([][]*topK, len(work))
	pipeline.For(len(work), 0, func(wi int) {
		c := work[wi]
		hs := make([]*topK, len(perCell[c]))
		for i := range hs {
			hs[i] = getTopK(k)
		}
		scanCell(c, perCell[c], hs)
		partial[wi] = hs
	})
	mergeStart := time.Now()
	final := make([]*topK, len(qs))
	for wi, c := range work {
		for i, qi := range perCell[c] {
			h := partial[wi][i]
			if final[qi] == nil {
				final[qi] = h
				continue
			}
			for j, id := range h.ids {
				final[qi].push(id, h.scores[j])
			}
			putTopK(h)
		}
	}
	out := make([][]Result, len(qs))
	for qi, h := range final {
		if h == nil {
			out[qi] = []Result{}
			continue
		}
		out[qi] = h.results(keys)
		putTopK(h)
	}
	tm.book(start, mergeStart)
	return out
}

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
// A query scans only the NProbe nearest cells, and each probed cell is an
// M-byte-per-row LUT scan, so both the scanned-row count and the
// bytes-per-row shrink relative to Flat. The recall/latency/memory
// trade-off is pinned by the IVF-PQ recall regression tests.
type IVFPQ struct {
	invFile
	dim      int
	pqCfg    pqConfig
	cb       *pqCodebook
	keys     []string
	residual bool
	// anchors[c] is the arithmetic mean of cell c's vectors, the point
	// residual codes are relative to. Only set under residual encoding;
	// routing always uses the spherical km centroids.
	anchors [][]float32
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
}

// NewIVFPQ returns an untrained IVF-PQ index. Vectors may be added before
// training; Train must be called before Search.
func NewIVFPQ(cfg IVFPQConfig) *IVFPQ {
	pqCfg := pqConfig{Dim: cfg.Dim, M: cfg.M, Seed: cfg.Seed}
	pqCfg.normalize()
	return &IVFPQ{
		invFile:  newInvFile(cfg.NList, cfg.NProbe, cfg.Seed),
		dim:      cfg.Dim,
		pqCfg:    pqCfg,
		residual: cfg.Residual,
	}
}

// Add implements Index. Vectors are only buffered until Train; the index
// is built once, so Add after Train panics, as Search before Train does.
func (ix *IVFPQ) Add(vec []float32, key string) int {
	if ix.trained {
		panic("vecstore: Add to trained IVFPQ")
	}
	if len(vec) != ix.dim {
		panic(fmt.Sprintf("vecstore: Add dim %d to IVFPQ of dim %d", len(vec), ix.dim))
	}
	ix.keys = append(ix.keys, key)
	ix.staged = f16.AppendEncoded(ix.staged, vec)
	return len(ix.keys) - 1
}

// Train fits the coarse quantizer and the PQ codebook on all buffered
// vectors, then encodes every vector — or its cell residual — into its
// cell's contiguous code block. It panics if the index is empty.
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
	assign := ix.train(full)
	// The codebook is fit on — and codes quantize — either the vectors or
	// their residuals against the per-cell mean anchor.
	enc := full
	if ix.residual {
		ix.anchors = make([][]float32, ix.km.K)
		for c, ids := range ix.cellIDs {
			a := make([]float32, ix.dim)
			ix.anchors[c] = a
			if len(ids) == 0 {
				continue // no mass to average; searches skip empty cells
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
		pipeline.For(n, 0, func(id int) {
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
	pipeline.For(n, 0, func(id int) {
		ix.cb.encode(enc[id], codes[id*ix.cb.m:(id+1)*ix.cb.m])
	})
	ix.cellCodes = cellBlocks(ix.cellIDs, codes, ix.cb.m)
	ix.staged = nil
	ix.trained = true
}

// M returns the number of PQ subspaces (code bytes per vector).
func (ix *IVFPQ) M() int { return ix.pqCfg.M }

// Variant names the encoding variant for stats and reports: "" (raw) or
// "res".
func (ix *IVFPQ) Variant() string {
	if ix.residual {
		return "res"
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

// searchBatch builds the queries' base LUTs and scans each probed cell's
// codes for its queries through the PQ LUT kernel; LUT construction is
// booked under Scan.
func (ix *IVFPQ) searchBatch(queries [][]float32, k int, tm *ScanTiming) [][]Result {
	if !ix.trained {
		panic("vecstore: Search on untrained IVFPQ")
	}
	checkBatchDims(queries, ix.dim)
	if k <= 0 || len(queries) == 0 {
		return make([][]Result, len(queries))
	}
	start := time.Now()
	luts, pooled := buildLUTs(ix.cb, queries)
	defer releaseLUTs(pooled)
	return ix.searchCells(queries, k, ix.keys, start, tm, func(c int, qis []int32, hs []*topK) {
		var cp *[]float32
		if ix.residual {
			cp = getTile(ix.cb.m * ix.cb.ksub)
			defer putTile(cp)
		}
		for i, qi := range qis {
			lut := luts[qi]
			if cp != nil {
				ix.cb.shiftLUT(*cp, lut, queries[qi], ix.anchors[c])
				lut = *cp
			}
			scanPQTopK(ix.cellCodes[c], ix.cb, lut, hs[i], ix.cellIDs[c])
		}
	})
}

// searchReference is the retained reference scalar scan over the probed
// cells, one row at a time with no pooling or parallelism (see
// ivfpq_test.go). It reuses the same base-LUT / shiftLUT helpers as
// Search, so the kernel must reproduce it bit-for-bit.
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
	probes := ix.km.NearestN(query, ix.nprobe)
	lut := make([]float32, ix.cb.m*ix.cb.ksub)
	ix.cb.lutInto(lut, query)
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
			ix.cb.shiftLUT(cellLUT, lut, query, ix.anchors[c])
		}
		block := ix.cellCodes[c]
		for row, id := range ix.cellIDs[c] {
			h.push(id, lutScore(block[row*m:(row+1)*m], cellLUT, ix.cb.ksub))
		}
	}
	return h.results(ix.keys)
}

// MemoryBytes reports code storage (M bytes/vector) plus the PQ codebook,
// coarse centroids and residual anchors; before Train it reports the FP16
// staging buffer.
func (ix *IVFPQ) MemoryBytes() int64 {
	if !ix.trained {
		return int64(2 * len(ix.staged))
	}
	b := int64(len(ix.keys)*ix.cb.m) + int64(4*len(ix.cb.cents)) +
		int64(4*ix.km.K*ix.dim)
	if ix.anchors != nil {
		b += int64(4 * ix.km.K * ix.dim)
	}
	return b
}

// Recall measures IVF-PQ ranking fidelity against an exact FP16 scan of
// the original full-precision vectors, when those are provided. Used by
// the recall regression test to pin the coarse-probe + quantization
// trade-off.
func (ix *IVFPQ) Recall(originals [][]float32, queries [][]float32, k int) float64 {
	return recallAgainstOriginals(ix, originals, queries, k)
}
