package vecstore

import "time"

// ScanTiming splits one batch search into the kernel's two phases: Scan is
// the segment-parallel row scan (plus any per-index pre-work folded into
// it), Merge the heap folds that produce final descending order. It feeds
// the serving layer's per-stage latency histograms and span timelines, and
// through them ragbench's serve.scan_us_* and serve.merge_us_* metrics.
type ScanTiming struct {
	Scan  time.Duration
	Merge time.Duration
}

// TimedBatchSearcher is implemented by indexes whose batch kernel can
// report the scan/merge split natively (Flat, Live). Indexes without it
// still time out-of-line through BatchSearchTimed's fallback, which books
// the whole call as Scan.
type TimedBatchSearcher interface {
	BatchSearcher
	// SearchBatchTimed is SearchBatch plus phase timing; results are
	// bit-identical to SearchBatch for the same inputs.
	SearchBatchTimed(queries [][]float32, k int) ([][]Result, ScanTiming)
}

// BatchSearchTimed is BatchSearch plus phase timing: indexes with a timed
// kernel report their real scan/merge split, every other index books its
// whole batch under Scan — honest in the sense that the serving layer
// never invents a merge phase the index didn't report.
func BatchSearchTimed(ix Index, queries [][]float32, k, workers int) ([][]Result, ScanTiming) {
	if ts, ok := ix.(TimedBatchSearcher); ok && len(queries) > 0 {
		return ts.SearchBatchTimed(queries, k)
	}
	start := time.Now()
	res := BatchSearch(ix, queries, k, workers)
	return res, ScanTiming{Scan: time.Since(start)}
}

// SearchBatchTimed implements TimedBatchSearcher with the multi-query
// kernel's native phase split.
func (ix *Flat) SearchBatchTimed(queries [][]float32, k int) ([][]Result, ScanTiming) {
	for _, q := range queries {
		if len(q) != ix.dim {
			panic("vecstore: Search dim mismatch")
		}
	}
	if k <= 0 || len(ix.keys) == 0 {
		return make([][]Result, len(queries)), ScanTiming{}
	}
	return searchBlockBatchTimed(halfBlock{codes: ix.codes, dim: ix.dim}, queries, k, ix.keys)
}

// SearchBatchTimed implements TimedBatchSearcher for the graph index.
// Beam traversals have no per-segment merge phase, so the whole
// query-per-worker fan-out is booked under Scan (the honest split: the
// per-query beam already returns descending order, there is nothing to
// fold).
func (h *HNSW) SearchBatchTimed(queries [][]float32, k int) ([][]Result, ScanTiming) {
	for _, q := range queries {
		if len(q) != h.dim {
			panic("vecstore: Search dim mismatch")
		}
	}
	out := make([][]Result, len(queries))
	var tm ScanTiming
	if k <= 0 || len(queries) == 0 || h.entry < 0 {
		return out, tm
	}
	start := time.Now()
	parallelFor(len(queries), 0, func(i int) {
		out[i] = h.Search(queries[i], k)
	})
	tm.Scan = time.Since(start)
	return out, tm
}

// SearchBatchTimed implements TimedBatchSearcher for the mutable layer:
// Scan covers the base kernel plus the memtable snapshot scan, Merge the
// per-query fold of the two result sets under the stores' total order.
func (lv *Live) SearchBatchTimed(queries [][]float32, k int) ([][]Result, ScanTiming) {
	for _, q := range queries {
		if len(q) != lv.dim {
			panic("vecstore: Search dim mismatch")
		}
	}
	out := make([][]Result, len(queries))
	var tm ScanTiming
	if k <= 0 || len(queries) == 0 {
		return out, tm
	}
	scanStart := time.Now()
	var base [][]Result
	if lv.nb > 0 {
		base = BatchSearch(lv.base, queries, k, 0)
	}
	mem := lv.mem.SearchBatch(queries, k)
	tm.Scan = time.Since(scanStart)
	mergeStart := time.Now()
	for qi := range queries {
		var b []Result
		if base != nil {
			b = base[qi]
		}
		out[qi] = mergeLive(b, mem[qi], lv.nb, k)
	}
	tm.Merge = time.Since(mergeStart)
	return out, tm
}
