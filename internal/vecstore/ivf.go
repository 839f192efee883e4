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

// IVF is an inverted-file index (FAISS IndexIVFFlat equivalent): vectors are
// partitioned into NList cells by a spherical k-means quantizer; a query
// scans only the NProbe nearest cells. Each cell's codes live in their own
// contiguous FP16 block (FAISS's inverted-list layout), so probing a cell is
// a pure streaming scan through the blocked kernel. Recall/latency trade-off
// is tested in ivf_test.go and swept by the ablation benchmarks.
type IVF struct {
	dim    int
	nprobe int
	km     *KMeans
	keys   []string
	// staged buffers codes contiguously in insertion order until Train.
	staged []uint16
	// After Train: per-cell contiguous code blocks and id postings. Row j
	// of cellCodes[c] belongs to insertion id cellIDs[c][j].
	cellIDs   [][]int
	cellCodes [][]uint16
	loc       []vecLoc // id → (cell, row), for decoding by id
	trained   bool
}

// vecLoc locates one vector inside the per-cell blocks.
type vecLoc struct {
	cell, row int32
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
	return &IVF{
		dim:    cfg.Dim,
		nprobe: cfg.NProbe,
		km:     &KMeans{K: cfg.NList, Seed: cfg.Seed},
	}
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
		c := ix.km.Nearest(vec)
		ix.loc = append(ix.loc, vecLoc{cell: int32(c), row: int32(len(ix.cellIDs[c]))})
		ix.cellIDs[c] = append(ix.cellIDs[c], id)
		ix.cellCodes[c] = f16.AppendEncoded(ix.cellCodes[c], vec)
	} else {
		ix.staged = f16.AppendEncoded(ix.staged, vec)
	}
	return id
}

// rowCodes returns the FP16 codes of insertion id.
func (ix *IVF) rowCodes(id int) []uint16 {
	if !ix.trained {
		return ix.staged[id*ix.dim : (id+1)*ix.dim]
	}
	l := ix.loc[id]
	return ix.cellCodes[l.cell][int(l.row)*ix.dim : (int(l.row)+1)*ix.dim]
}

// Train fits the coarse quantizer on all buffered vectors and assigns them
// to per-cell contiguous blocks. It panics if the index is empty.
func (ix *IVF) Train() {
	n := len(ix.keys)
	if n == 0 {
		panic("vecstore: Train on empty IVF")
	}
	if ix.km.K <= 0 {
		ix.km.K = int(math.Sqrt(float64(n)))
		if ix.km.K < 1 {
			ix.km.K = 1
		}
	}
	if ix.km.K > n {
		ix.km.K = n
	}
	if ix.nprobe <= 0 {
		ix.nprobe = ix.km.K / 16
		if ix.nprobe < 1 {
			ix.nprobe = 1
		}
	} else if ix.nprobe > ix.km.K {
		// A SetNProbe before Train may exceed an auto-sized or shrunk K.
		ix.nprobe = ix.km.K
	}
	full := make([][]float32, n)
	for i := range full {
		full[i] = f16.Decode(ix.staged[i*ix.dim : (i+1)*ix.dim])
	}
	ix.km.Train(full)
	// Assign, then pack each cell's codes into one contiguous block.
	assign := make([]int, n)
	counts := make([]int, ix.km.K)
	for id, v := range full {
		c := ix.km.Nearest(v)
		assign[id] = c
		counts[c]++
	}
	ix.cellIDs = make([][]int, ix.km.K)
	ix.cellCodes = make([][]uint16, ix.km.K)
	for c, cnt := range counts {
		ix.cellIDs[c] = make([]int, 0, cnt)
		ix.cellCodes[c] = make([]uint16, 0, cnt*ix.dim)
	}
	ix.loc = make([]vecLoc, n)
	for id := 0; id < n; id++ {
		c := assign[id]
		ix.loc[id] = vecLoc{cell: int32(c), row: int32(len(ix.cellIDs[c]))}
		ix.cellIDs[c] = append(ix.cellIDs[c], id)
		ix.cellCodes[c] = append(ix.cellCodes[c], ix.staged[id*ix.dim:(id+1)*ix.dim]...)
	}
	ix.staged = nil
	ix.trained = true
}

// Trained reports whether the quantizer has been fitted.
func (ix *IVF) Trained() bool { return ix.trained }

// SetNProbe adjusts the number of cells scanned per query (recall knob).
func (ix *IVF) SetNProbe(n int) {
	if n < 1 {
		n = 1
	}
	if ix.trained && n > ix.km.K {
		n = ix.km.K
	}
	ix.nprobe = n
}

// NProbe returns the current probe count.
func (ix *IVF) NProbe() int { return ix.nprobe }

// NList returns the number of cells (0 before training when auto-sized).
func (ix *IVF) NList() int { return ix.km.K }

// Len implements Index.
func (ix *IVF) Len() int { return len(ix.keys) }

// Dim implements Index.
func (ix *IVF) Dim() int { return ix.dim }

// Key returns the metadata key for id.
func (ix *IVF) Key(id int) string { return ix.keys[id] }

// Search implements Index by streaming the nprobe nearest cells through the
// blocked scan kernel.
func (ix *IVF) Search(query []float32, k int) []Result {
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
	h := getTopK(k)
	hs := []*topK{h}
	for _, c := range probes {
		scanBatchTopK(halfBlock{codes: ix.cellCodes[c], dim: ix.dim}, query, hs, ix.cellIDs[c], 0)
	}
	res := h.results(ix.keys)
	putTopK(h)
	return res
}

// SearchBatch implements Index: queries are grouped by probed cell so each
// cell's block is streamed once for every query probing it, and cells are
// scanned in parallel.
func (ix *IVF) SearchBatch(queries [][]float32, k int) [][]Result {
	return ix.searchBatch(queries, k, nil)
}

// searchBatch books the whole batch under Scan.
func (ix *IVF) searchBatch(queries [][]float32, k int, tm *ScanTiming) [][]Result {
	defer tm.bookScan(time.Now())
	if !ix.trained {
		panic("vecstore: Search on untrained IVF")
	}
	checkBatchDims(queries, ix.dim)
	out := make([][]Result, len(queries))
	if k <= 0 || len(queries) == 0 {
		return out
	}
	// Probe assignment, fanned out over queries.
	probes := make([][]int, len(queries))
	parallelFor(len(queries), 0, func(qi int) {
		probes[qi] = ix.km.NearestN(queries[qi], ix.nprobe)
	})
	// Invert: cell → indices of the queries probing it.
	perCell := make([][]int32, ix.km.K)
	for qi, ps := range probes {
		for _, c := range ps {
			perCell[c] = append(perCell[c], int32(qi))
		}
	}
	work := make([]int, 0, ix.km.K)
	for c, qs := range perCell {
		if len(qs) > 0 && len(ix.cellIDs[c]) > 0 {
			work = append(work, c)
		}
	}
	// Scan cells in parallel; each produces one partial heap per
	// interested query, merged per query afterwards.
	partial := make([][]*topK, len(work))
	parallelFor(len(work), 0, func(wi int) {
		c := work[wi]
		qs := perCell[c]
		qsub := make([][]float32, len(qs))
		hs := make([]*topK, len(qs))
		for i, qi := range qs {
			qsub[i] = queries[qi]
			hs[i] = getTopK(k)
		}
		qp := packQueries(qsub, ix.dim)
		scanBatchTopK(halfBlock{codes: ix.cellCodes[c], dim: ix.dim}, *qp, hs, ix.cellIDs[c], 0)
		putTile(qp)
		partial[wi] = hs
	})
	final := make([]*topK, len(queries))
	for wi, c := range work {
		for i, qi := range perCell[c] {
			h := partial[wi][i]
			if final[qi] == nil {
				final[qi] = h
				continue
			}
			f := final[qi]
			for j, id := range h.ids {
				f.push(id, h.scores[j])
			}
			putTopK(h)
		}
	}
	for qi := range out {
		if final[qi] == nil {
			// All probed cells were empty; Search returns a non-nil empty
			// slice in this case, so match it.
			out[qi] = []Result{}
			continue
		}
		out[qi] = final[qi].results(ix.keys)
		putTopK(final[qi])
	}
	return out
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
// trade-off.
func (ix *IVF) Recall(queries [][]float32, k int) float64 {
	if len(queries) == 0 {
		return 0
	}
	flat := NewFlat(ix.dim)
	buf := make([]float32, ix.dim)
	for id := range ix.keys {
		f16.DecodeInto(buf, ix.rowCodes(id))
		flat.Add(buf, ix.keys[id])
	}
	return recallAgainst(flat, ix, queries, k)
}
