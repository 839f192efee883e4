package vecstore

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/f16"
)

// This file implements the blocked scan kernel shared by the FP16 code
// blocks (Flat, the memtable, and HNSW's gathers) and IVF-PQ's LUT cell
// scan. The layout discipline is FAISS's: codes live in one flat
// array with row i at codes[i*dim:(i+1)*dim], so a scan is a pure forward
// stream with no pointer chasing. The scan loop walks a halfBlock in
// tiles of scanTileRows rows, scores each tile against the whole query
// batch into a pooled score buffer (halfBlock.scoreTile), and pushes the
// scores into per-query top-k heaps. Large blocks are split into
// GOMAXPROCS segments searched concurrently with per-segment heaps merged
// at the end, so a single query saturates the machine. A single-query
// search is the same loop over a one-query batch.
//
// FP16 rows are scored in groups of up to f16.MaxDotRows (8) straight
// from the codes by f16.DotRows: a lone 384-dim dot is bound by the
// latency of its four add chains, not by decode or bandwidth, and one
// pass over eight rows (F16C assembly on amd64, one 4-wide accumulator
// per row) gives the core eight independent chains and loads each query
// chunk once for all of them. Each group is scored against every query of
// the batch while it sits in L1.
//
// Flat and the memtable scan through an int8 first pass (firstpass.go)
// when a segment holds more rows than k: each tile of int8 rows is scored
// against every query of the batch by f16.DotI8Rows while it sits in L1,
// each score is bounded within ±(‖q‖‖e_x‖ + ‖e_q‖‖x̃‖ + γ) of the FP16
// one, and only rows whose upper bound reaches τ, the segment's k-th
// largest lower bound, are rescored by f16.DotRows (gatherScores) and
// pushed. A non-finite row is always rescored; a batch with a non-finite
// or huge query, or a segment with no more rows than k, takes the plain
// path, which scores every row.
//
// Exactness: f16.DotRows returns f16.Dot's result for each row bit for
// bit, and the top-k heap orders by the total order (score desc, id asc;
// NaN below every number), so push order and segment merging cannot
// change results, and the first pass only leaves out rows that cannot be
// in the top-k: the scan reproduces the reference scalar scan
// bit-for-bit. parity_test.go and firstpass_test.go enforce this. The
// integer kernel needs no parity test of its own: its sums are exact and
// associate, so any width or order gives the same integers.

const (
	// scanTileRows is the number of rows scored per kernel step, the
	// granularity of the score buffer. It is a multiple of
	// f16.MaxDotRows, so a row group never straddles a tile or a segment,
	// and the only short group is a block's last.
	scanTileRows = 64
	// segmentMinRows is the minimum per-segment work that justifies
	// spawning a parallel scan goroutine for a single query.
	segmentMinRows = 4096
)

// halfBlock is a contiguous FP16 code block (Flat storage, the memtable,
// HNSW vectors). Flat and the memtable also carry each row's derived
// first-pass state (firstpass.go): int8 codes with row r at
// i8[r*dim:(r+1)*dim], and bnd[r]. HNSW's block has none.
type halfBlock struct {
	codes []uint16
	dim   int
	i8    []int8
	bnd   []rowBound
}

func (b halfBlock) rows() int { return len(b.codes) / b.dim }

func (b halfBlock) row(r int) []uint16 { return b.codes[r*b.dim : (r+1)*b.dim] }

// slice returns the sub-block of rows [r0,r1), first-pass state included.
func (b halfBlock) slice(r0, r1 int) halfBlock {
	s := halfBlock{codes: b.codes[r0*b.dim : r1*b.dim], dim: b.dim}
	if b.firstPass() {
		s.i8, s.bnd = b.i8[r0*b.dim:r1*b.dim], b.bnd[r0:r1]
	}
	return s
}

// firstPass reports whether every row carries its first-pass state.
func (b halfBlock) firstPass() bool { return len(b.bnd) == b.rows() }

// scoreTile writes the inner product of row r0+i with query qi of the
// packed batch qs (query qi is qs[qi*dim:(qi+1)*dim]) to
// scores[qi*(r1-r0)+i]. Rows are scored in groups of up to
// f16.MaxDotRows through f16.DotRows, each group against every query
// before the next group is loaded.
func (b halfBlock) scoreTile(scores []float32, r0, r1 int, qs []float32) {
	n, dim := r1-r0, b.dim
	var rows [f16.MaxDotRows][]uint16
	for i := 0; i < n; i += f16.MaxDotRows {
		g := min(f16.MaxDotRows, n-i)
		for j := range g {
			rows[j] = b.row(r0 + i + j)
		}
		for qi := 0; qi*dim < len(qs); qi++ {
			f16.DotRows(scores[qi*n+i:qi*n+i+g], rows[:g], qs[qi*dim:(qi+1)*dim])
		}
	}
}

// tilePool recycles FP32 scratch (score buffers, packed query batches, PQ
// LUTs) across searches: zero steady-state allocation in the scan itself.
var tilePool = sync.Pool{New: func() any { return new([]float32) }}

func getTile(n int) *[]float32 {
	p := tilePool.Get().(*[]float32)
	if cap(*p) < n {
		*p = make([]float32, n)
	}
	*p = (*p)[:n]
	return p
}

func putTile(p *[]float32) { tilePool.Put(p) }

// topKPool recycles the bounded heaps used per query and per segment.
var topKPool = sync.Pool{New: func() any { return new(topK) }}

func getTopK(k int) *topK {
	h := topKPool.Get().(*topK)
	h.k = k
	if cap(h.ids) <= k {
		h.ids = make([]int, 0, k+1)
		h.scores = make([]float32, 0, k+1)
	} else {
		h.ids = h.ids[:0]
		h.scores = h.scores[:0]
	}
	return h
}

func putTopK(h *topK) { topKPool.Put(h) }

// gatherScores scores an arbitrary gather of FP16 rows — the beam-search
// candidate sets of HNSW, rather than a forward stream — against q,
// writing scores[i] for rows[i]. Rows are grouped in gather order through
// f16.DotRows like the scan's tiles, so the scores are bit-identical to
// scoring one row at a time.
func gatherScores(b halfBlock, rows []int32, q []float32, scores []float32) {
	var group [f16.MaxDotRows][]uint16
	for i := 0; i < len(rows); i += f16.MaxDotRows {
		g := min(f16.MaxDotRows, len(rows)-i)
		for j := range g {
			group[j] = b.row(int(rows[i+j]))
		}
		f16.DotRows(scores[i:i+g], group[:g], q)
	}
}

// scanBatchTopK streams one code block through the kernel, a tile of rows
// at a time scored against every query of the batch qb, and pushes each
// score into hs[qi], the heap of query qi. Row r is reported as id base+r.
// A single-query scan is a one-query batch. A block with more rows than k
// goes through the int8 first pass (firstPassTopK) unless the block or the
// batch has no first-pass state; the plain path below scores every row.
func scanBatchTopK(b halfBlock, qb *queryBatch, hs []*topK, base int) {
	rows := b.rows()
	if rows == 0 || len(hs) == 0 {
		return
	}
	if rows > hs[0].k && !qb.plain && b.firstPass() {
		firstPassTopK(b, qb, hs, base)
		return
	}
	qs := qb.fp
	sp := getTile(scanTileRows * len(hs))
	scores := *sp
	for r0 := 0; r0 < rows; r0 += scanTileRows {
		r1 := min(r0+scanTileRows, rows)
		n := r1 - r0
		b.scoreTile(scores, r0, r1, qs)
		for qi, h := range hs {
			for i, s := range scores[qi*n : (qi+1)*n] {
				h.push(base+r0+i, s)
			}
		}
	}
	putTile(sp)
}

// packQueries copies a query batch into one pooled row-major matrix, the
// layout scanBatchTopK takes.
func packQueries(queries [][]float32, dim int) *[]float32 {
	qp := getTile(len(queries) * dim)
	for i, q := range queries {
		copy((*qp)[i*dim:(i+1)*dim], q)
	}
	return qp
}

// scanSegments picks the number of parallel segments for a scan whose total
// work is rows×queries row-dot-products.
func scanSegments(rows, queries int) int {
	w := runtime.GOMAXPROCS(0)
	if queries < 1 {
		queries = 1
	}
	if limit := rows * queries / segmentMinRows; w > limit {
		w = limit
	}
	if w < 1 {
		w = 1
	}
	return w
}

// searchBlock runs the top-k scan over one block, splitting it into
// parallel segments when the block is large enough, and appends the
// descending-ordered results to dst.
func searchBlock(b halfBlock, q []float32, k int, keys []string, dst []Result) []Result {
	rows := b.rows()
	qb := prepQueries(q, b.dim, k < rows && b.firstPass())
	defer putQueryBatch(qb)
	workers := scanSegments(rows, 1)
	if workers <= 1 {
		h := getTopK(k)
		scanBatchTopK(b, qb, []*topK{h}, 0)
		dst = h.appendResults(dst, keys)
		putTopK(h)
		return dst
	}
	seg := segmentSize(rows, workers)
	heaps := make([]*topK, 0, workers)
	var wg sync.WaitGroup
	for r0 := 0; r0 < rows; r0 += seg {
		r1 := r0 + seg
		if r1 > rows {
			r1 = rows
		}
		heaps = append(heaps, getTopK(k))
		wg.Add(1)
		go func(sub halfBlock, base int, hs []*topK) {
			defer wg.Done()
			scanBatchTopK(sub, qb, hs, base)
		}(b.slice(r0, r1), r0, heaps[len(heaps)-1:])
	}
	wg.Wait()
	return mergeHeaps(heaps, keys, dst)
}

// searchBlockBatch is the FP16 SearchBatch: the batch is packed and
// quantized once and every segment's tiles are scored against all of it by
// scanBatchTopK.
func searchBlockBatch(b halfBlock, queries [][]float32, k int, keys []string, tm *ScanTiming) [][]Result {
	if b.rows() == 0 || k <= 0 || len(queries) == 0 {
		return make([][]Result, len(queries))
	}
	start := time.Now()
	qp := packQueries(queries, b.dim)
	defer putTile(qp)
	qb := prepQueries(*qp, b.dim, k < b.rows() && b.firstPass())
	defer putQueryBatch(qb)
	return searchSegments(b.rows(), len(queries), k, keys, start, tm, func(r0, r1 int, hs []*topK) {
		scanBatchTopK(b.slice(r0, r1), qb, hs, r0)
	})
}

// searchSegments is the segment-parallel multi-query driver behind every
// contiguous FP16 code block (Flat and the memtable): the rows are split into
// scanSegments segments of segmentSize rows, each segment gets one heap
// per query and its own goroutine, and each query's segment heaps are
// folded by mergeHeaps. scanSeg scores rows [r0,r1) into hs (hs[qi] for
// query qi) and is called once per segment, so the tile and row loops stay
// in the family's kernel. A non-nil tm receives where the time went: Scan
// runs from start — the caller's per-batch pre-work (query packing) —
// through the segment scans, Merge covers the heap folds
// into final descending order. Timing only brackets the two phases with
// clock reads; results do not depend on it.
func searchSegments(rows, nq, k int, keys []string, start time.Time, tm *ScanTiming, scanSeg func(r0, r1 int, hs []*topK)) [][]Result {
	seg := segmentSize(rows, scanSegments(rows, nq))
	heaps := make([][]*topK, 0, (rows+seg-1)/seg)
	var wg sync.WaitGroup
	for r0 := 0; r0 < rows; r0 += seg {
		hs := make([]*topK, nq)
		for i := range hs {
			hs[i] = getTopK(k)
		}
		heaps = append(heaps, hs)
		wg.Add(1)
		go func(r0, r1 int) {
			defer wg.Done()
			scanSeg(r0, r1, hs)
		}(r0, min(r0+seg, rows))
	}
	wg.Wait()
	mergeStart := time.Now()
	out := make([][]Result, nq)
	for qi := range out {
		perSeg := make([]*topK, len(heaps))
		for si := range heaps {
			perSeg[si] = heaps[si][qi]
		}
		out[qi] = mergeHeaps(perSeg, keys, nil)
	}
	tm.book(start, mergeStart)
	return out
}

// scanPQTopK streams an IVF-PQ cell's M-byte PQ codes against a
// precomputed asymmetric-distance LUT: scoring a row is one table lookup
// and add per subspace (lutScore), with no FP32 decode. Row r is reported
// as id ids[r], its posting in the cell.
func scanPQTopK(codes []byte, cb *pqCodebook, lut []float32, h *topK, ids []int) {
	m, ksub := cb.m, cb.ksub
	for r, id := range ids {
		h.push(id, lutScore(codes[r*m:(r+1)*m], lut, ksub))
	}
}

// segmentSize rounds rows/workers up to a whole number of tiles so tiles,
// and with them FP16 row groups, never straddle segment boundaries.
func segmentSize(rows, workers int) int {
	seg := (rows + workers - 1) / workers
	seg = (seg + scanTileRows - 1) / scanTileRows * scanTileRows
	if seg < scanTileRows {
		seg = scanTileRows
	}
	return seg
}

// mergeHeaps folds per-segment heaps into heaps[0] and appends the final
// descending results to dst. Because the heap order is the total order
// (score desc, id asc), the merge is exact regardless of segment split.
func mergeHeaps(heaps []*topK, keys []string, dst []Result) []Result {
	final := heaps[0]
	for _, h := range heaps[1:] {
		for i, id := range h.ids {
			final.push(id, h.scores[i])
		}
		putTopK(h)
	}
	dst = final.appendResults(dst, keys)
	putTopK(final)
	return dst
}
