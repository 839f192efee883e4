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

// BatchSearchTimed is ix.SearchBatch plus where the batch's time went.
// Flat, the memtable and IVF-PQ report their real scan/merge split — Scan
// covers query packing or LUT construction and the segment or cell scans,
// Merge the per-query heap folds — and Live books its tiers' scans under
// Scan and their fold under Merge. HNSW, whose beams have
// nothing to fold, books the whole batch under Scan, so the serving layer
// never sees a merge phase the index did not report. Results are
// bit-identical to SearchBatch.
func BatchSearchTimed(ix Index, queries [][]float32, k int) ([][]Result, ScanTiming) {
	var tm ScanTiming
	res := ix.searchBatch(queries, k, &tm)
	return res, tm
}

// book records a batch that scanned from scanStart to mergeStart and
// merged from mergeStart until now. A nil tm is an untimed call.
func (tm *ScanTiming) book(scanStart, mergeStart time.Time) {
	if tm != nil {
		tm.Scan, tm.Merge = mergeStart.Sub(scanStart), time.Since(mergeStart)
	}
}

// bookScan records a whole batch, started at start, under Scan (HNSW). A
// nil tm is an untimed call.
func (tm *ScanTiming) bookScan(start time.Time) {
	if tm != nil {
		tm.Scan = time.Since(start)
	}
}

// checkBatchDims panics unless every query has the index's dimension.
func checkBatchDims(queries [][]float32, dim int) {
	for _, q := range queries {
		if len(q) != dim {
			panic("vecstore: Search dim mismatch")
		}
	}
}
