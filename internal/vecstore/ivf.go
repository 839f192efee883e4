package vecstore

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/f16"
)

// invFile is the inverted-file layer IVF and IVFPQ share: the spherical
// coarse quantizer, the probe count, each cell's id postings, and the
// probe-grouped batch scan over them. The families embed it and keep only
// their per-cell code blocks (row j of cell block c belongs to insertion
// id cellIDs[c][j]) and the scorer for one cell.
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
	parallelFor(n, 0, func(id int) {
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

// route appends post-train insertion id, whose code-space vector is v, to
// its nearest cell's postings and returns the cell.
func (ix *invFile) route(v []float32, id int) int {
	c := ix.km.Nearest(v)
	ix.cellIDs[c] = append(ix.cellIDs[c], id)
	return c
}

// cellBlocks packs each cell's rows, in posting order, into one contiguous
// block: block c is the stride-wide rows codes[id*stride:(id+1)*stride]
// of the ids in cellIDs[c].
func cellBlocks[C uint16 | byte](cellIDs [][]int, codes []C, stride int) [][]C {
	blocks := make([][]C, len(cellIDs))
	for c, ids := range cellIDs {
		b := make([]C, 0, len(ids)*stride)
		for _, id := range ids {
			b = append(b, codes[id*stride:(id+1)*stride]...)
		}
		blocks[c] = b
	}
	return blocks
}

// Trained reports whether the quantizers have been fitted.
func (ix *invFile) Trained() bool { return ix.trained }

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
// cells are found (qs are the queries in code space), queries are grouped
// by probed cell so every non-empty cell is scanned once, in parallel, for
// all the queries probing it, and each query's partial heaps are folded
// into its results. scanCell scores cell c for queries qis into hs (hs[i]
// for query qis[i]). A query whose probed cells are all empty gets a
// non-nil empty slice, as Search always returned. A non-nil tm receives
// Scan from start — the caller's per-batch pre-work — through the cell
// scans, and Merge for the per-query folds.
func (ix *invFile) searchCells(qs [][]float32, k int, keys []string, start time.Time, tm *ScanTiming, scanCell func(c int, qis []int32, hs []*topK)) [][]Result {
	probes := make([][]int, len(qs))
	parallelFor(len(qs), 0, func(qi int) {
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
	parallelFor(len(work), 0, func(wi int) {
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

// IVF is an inverted-file index (FAISS IndexIVFFlat equivalent): vectors are
// partitioned into NList cells by a spherical k-means quantizer; a query
// scans only the NProbe nearest cells. Each cell's codes live in their own
// contiguous FP16 block (FAISS's inverted-list layout), so probing a cell is
// a pure streaming scan through the blocked kernel. Recall/latency trade-off
// is tested in ivf_test.go and swept by the ablation benchmarks.
type IVF struct {
	invFile
	dim  int
	keys []string
	// staged buffers codes contiguously in insertion order until Train.
	staged []uint16
	// After Train: per-cell contiguous FP16 code blocks.
	cellCodes [][]uint16
}

// IVFConfig parameterises index construction.
type IVFConfig struct {
	Dim    int
	NList  int    // number of cells; 0 → sqrt(n) at Train time
	NProbe int    // cells scanned per query; 0 → max(1, NList/16)
	Seed   uint64 // quantizer training seed
}

// NewIVF returns an untrained IVF index. Vectors may be added before
// training; Train must be called before Search.
func NewIVF(cfg IVFConfig) *IVF {
	if cfg.Dim <= 0 {
		panic("vecstore: non-positive dim")
	}
	return &IVF{invFile: newInvFile(cfg.NList, cfg.NProbe, cfg.Seed), dim: cfg.Dim}
}

// Add implements Index. Vectors added after training are routed to their
// cell immediately; before training they are only buffered.
func (ix *IVF) Add(vec []float32, key string) int {
	if len(vec) != ix.dim {
		panic(fmt.Sprintf("vecstore: Add dim %d to IVF of dim %d", len(vec), ix.dim))
	}
	id := len(ix.keys)
	ix.keys = append(ix.keys, key)
	if ix.trained {
		c := ix.route(vec, id)
		ix.cellCodes[c] = f16.AppendEncoded(ix.cellCodes[c], vec)
	} else {
		ix.staged = f16.AppendEncoded(ix.staged, vec)
	}
	return id
}

// Train fits the coarse quantizer on all buffered vectors and assigns them
// to per-cell contiguous blocks. It panics if the index is empty.
func (ix *IVF) Train() {
	n := len(ix.keys)
	if n == 0 {
		panic("vecstore: Train on empty IVF")
	}
	full := make([][]float32, n)
	for i := range full {
		full[i] = f16.Decode(ix.staged[i*ix.dim : (i+1)*ix.dim])
	}
	ix.train(full)
	ix.cellCodes = cellBlocks(ix.cellIDs, ix.staged, ix.dim)
	ix.staged = nil
	ix.trained = true
}

// Len implements Index.
func (ix *IVF) Len() int { return len(ix.keys) }

// Dim implements Index.
func (ix *IVF) Dim() int { return ix.dim }

// Key returns the metadata key for id.
func (ix *IVF) Key(id int) string { return ix.keys[id] }

// Search implements Index as a one-query SearchBatch.
func (ix *IVF) Search(query []float32, k int) []Result {
	return ix.searchBatch([][]float32{query}, k, nil)[0]
}

// SearchBatch implements Index: queries are grouped by probed cell so each
// cell's block is streamed once for every query probing it, and cells are
// scanned in parallel.
func (ix *IVF) SearchBatch(queries [][]float32, k int) [][]Result {
	return ix.searchBatch(queries, k, nil)
}

// searchBatch scans each probed cell for its queries, packed row-major
// into one pooled batch, through the blocked FP16 kernel.
func (ix *IVF) searchBatch(queries [][]float32, k int, tm *ScanTiming) [][]Result {
	if !ix.trained {
		panic("vecstore: Search on untrained IVF")
	}
	checkBatchDims(queries, ix.dim)
	if k <= 0 || len(queries) == 0 {
		return make([][]Result, len(queries))
	}
	return ix.searchCells(queries, k, ix.keys, time.Now(), tm, func(c int, qis []int32, hs []*topK) {
		qp := getTile(len(qis) * ix.dim)
		for i, qi := range qis {
			copy((*qp)[i*ix.dim:], queries[qi])
		}
		scanBatchTopK(halfBlock{codes: ix.cellCodes[c], dim: ix.dim}, *qp, hs, ix.cellIDs[c], 0)
		putTile(qp)
	})
}

// searchReference is the retained reference scalar scan over the probed
// cells (see parity_test.go).
func (ix *IVF) searchReference(query []float32, k int) []Result {
	if !ix.trained {
		panic("vecstore: Search on untrained IVF")
	}
	if len(query) != ix.dim {
		panic("vecstore: Search dim mismatch")
	}
	if k <= 0 {
		return nil
	}
	probes := ix.km.NearestN(query, ix.nprobe)
	h := newTopK(k)
	for _, c := range probes {
		block := ix.cellCodes[c]
		for row, id := range ix.cellIDs[c] {
			h.push(id, f16.Dot(block[row*ix.dim:(row+1)*ix.dim], query))
		}
	}
	return h.results(ix.keys)
}

// parallelFor runs fn(i) for i in [0,n) across workers goroutines with an
// atomic work counter; workers <= 0 selects GOMAXPROCS. It is the shared
// query/cell fan-out of the SearchBatch kernels and of training.
func parallelFor(n, workers int, fn func(i int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// MemoryBytes reports approximate vector storage size.
func (ix *IVF) MemoryBytes() int64 {
	return int64(len(ix.keys)) * int64(f16.BytesPerVector(ix.dim))
}

// Recall measures the fraction of exact top-k neighbours (per a Flat scan of
// the same data) that the IVF search returns, averaged over the queries.
// Used by tests and the ablation bench to quantify the recall/latency
// trade-off. The Flat holds the cells' FP16 codes back in insertion order.
func (ix *IVF) Recall(queries [][]float32, k int) float64 {
	if len(queries) == 0 {
		return 0
	}
	flat := &Flat{dim: ix.dim, codes: make([]uint16, len(ix.keys)*ix.dim), keys: ix.keys}
	for c, ids := range ix.cellIDs {
		for row, id := range ids {
			copy(flat.row(id), ix.cellCodes[c][row*ix.dim:(row+1)*ix.dim])
		}
	}
	return recallAgainst(flat, ix, queries, k)
}
