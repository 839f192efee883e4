package vecstore

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/f16"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// HNSW is a hierarchical navigable small-world graph index (the FAISS
// IndexHNSWFlat equivalent): greedy search descends random-level layers of
// a proximity graph, giving sub-linear query time without training. Unlike
// IVF-PQ it needs no k-means pass and is built incrementally. It lives in
// memory only: ToHNSW builds it from a Flat, and it is never saved or
// served.
//
// Storage is flat. Vectors live in one contiguous FP16 code block — the
// same layout the scan kernels stream over — and adjacency is a CSR-style
// fixed-slot array: level 0 gives node i the degree-prefixed block
// links0[i*(2M+1) : (i+1)*(2M+1)], and levels >= 1 share one packed arena
// (upper) addressed through upperBase. Construction is deterministic given
// the seed and bit-identical to the retained jagged reference
// (hnsw_ref_test.go): same rng stream, same stored-order neighbour
// iteration, same beam and prune tie-breaks.
type HNSW struct {
	dim            int
	m              int // max neighbours per node per layer (level 0 uses 2M)
	efConstruction int
	efSearch       int

	codes  []uint16 // contiguous FP16 rows; row i at codes[i*dim:(i+1)*dim]
	keys   []string
	levels []int

	// links0 is level-0 adjacency: node i owns stride0() slots, the
	// first holding the live degree.
	links0 []int32
	// upper packs levels >= 1: a node with top level L >= 1 owns
	// L*(m+1) contiguous slots starting at upperBase[i]; level lv's
	// block starts (lv-1)*(m+1) in, slot 0 again the degree.
	upper     []int32
	upperBase []int32 // -1 for nodes that only exist on level 0

	entry int // entry point (highest-level node)
	maxLv int
	rand  *rng.Source
}

// HNSWConfig parameterises graph construction and search.
type HNSWConfig struct {
	Dim            int
	M              int // default 16
	EfConstruction int // default 64
	EfSearch       int // default 32
	Seed           uint64
}

// NewHNSW returns an empty HNSW index.
func NewHNSW(cfg HNSWConfig) *HNSW {
	if cfg.Dim <= 0 {
		panic("vecstore: non-positive dim")
	}
	if cfg.M <= 0 {
		cfg.M = 16
	}
	if cfg.EfConstruction <= 0 {
		cfg.EfConstruction = 64
	}
	if cfg.EfSearch <= 0 {
		cfg.EfSearch = 32
	}
	return &HNSW{
		dim:            cfg.Dim,
		m:              cfg.M,
		efConstruction: cfg.EfConstruction,
		efSearch:       cfg.EfSearch,
		entry:          -1,
		maxLv:          -1,
		rand:           rng.New(cfg.Seed).Split("hnsw"),
	}
}

// SetEfSearch adjusts the search beam width (recall knob).
func (h *HNSW) SetEfSearch(ef int) {
	if ef < 1 {
		ef = 1
	}
	h.efSearch = ef
}

// Len implements Index.
func (h *HNSW) Len() int { return len(h.keys) }

// Dim implements Index.
func (h *HNSW) Dim() int { return h.dim }

// M reports the graph's max-neighbour parameter.
func (h *HNSW) M() int { return h.m }

// EfSearch reports the current search beam width.
func (h *HNSW) EfSearch() int { return h.efSearch }

// Key returns the metadata key for id.
func (h *HNSW) Key(id int) string {
	if id < 0 || id >= len(h.keys) {
		panic(fmt.Sprintf("vecstore: HNSW.Key(%d) out of range [0,%d)", id, len(h.keys)))
	}
	return h.keys[id]
}

// MemoryBytes reports FP16 code storage plus the adjacency arenas, for
// StatsOf.
func (h *HNSW) MemoryBytes() int64 {
	return int64(len(h.codes))*2 +
		int64(len(h.links0)+len(h.upper)+len(h.upperBase))*4
}

func (h *HNSW) block() halfBlock { return halfBlock{codes: h.codes, dim: h.dim} }

func (h *HNSW) stride0() int { return 2*h.m + 1 }

// slotBlock returns node's full degree-prefixed slot block on level lv.
func (h *HNSW) slotBlock(node, lv int) []int32 {
	if lv == 0 {
		s := h.stride0()
		return h.links0[node*s : (node+1)*s]
	}
	off := int(h.upperBase[node]) + (lv-1)*(h.m+1)
	return h.upper[off : off+h.m+1]
}

// neighbours returns node's live neighbour ids on level lv — a view into
// the slot arena, valid until the node's list is rewritten.
func (h *HNSW) neighbours(node, lv int) []int32 {
	blk := h.slotBlock(node, lv)
	return blk[1 : 1+int(blk[0])]
}

// setNeighbours overwrites node's level-lv list. len(ids) must fit the
// level's slot budget (maxLinks).
func (h *HNSW) setNeighbours(node, lv int, ids []int32) {
	blk := h.slotBlock(node, lv)
	blk[0] = int32(len(ids))
	copy(blk[1:], ids)
}

// randomLevel draws a node's top layer from the standard geometric
// distribution with normalisation 1/ln(M).
func (h *HNSW) randomLevel() int {
	u := h.rand.Float64()
	for u == 0 {
		u = h.rand.Float64()
	}
	return int(-math.Log(u) / math.Log(float64(h.m)))
}

// hnswScratch is per-traversal state, pooled so concurrent Searches over
// a shared (immutable) graph neither allocate per call nor contend: an
// epoch-stamped visited array stands in for the reference's per-call map,
// and the beam/prune slices are recycled across calls.
type hnswScratch struct {
	visited []uint32
	epoch   uint32
	fresh   []int32
	nbr     []int32
	scores  []float32
	vec     []float32
	cands   []scored
	results []scored
	prune   []scored
}

var hnswScratchPool = sync.Pool{New: func() any { return new(hnswScratch) }}

func getHNSWScratch() *hnswScratch  { return hnswScratchPool.Get().(*hnswScratch) }
func putHNSWScratch(s *hnswScratch) { hnswScratchPool.Put(s) }

// beginVisit starts a fresh visited-set generation covering ids [0, n).
// Stale stamps are always from strictly older epochs, so no clearing is
// needed until the 32-bit epoch wraps.
func (s *hnswScratch) beginVisit(n int) {
	if cap(s.visited) < n {
		s.visited = make([]uint32, n)
		s.epoch = 0
	}
	s.visited = s.visited[:n]
	s.epoch++
	if s.epoch == 0 {
		clear(s.visited)
		s.epoch = 1
	}
}

func (s *hnswScratch) seen(id int) bool { return s.visited[id] == s.epoch }
func (s *hnswScratch) mark(id int)      { s.visited[id] = s.epoch }

func (s *hnswScratch) scoresFor(n int) []float32 {
	if cap(s.scores) < n {
		s.scores = make([]float32, n)
	}
	return s.scores[:n]
}

func (s *hnswScratch) vecFor(dim int) []float32 {
	if cap(s.vec) < dim {
		s.vec = make([]float32, dim)
	}
	return s.vec[:dim]
}

// scoreOne scores row id against q: the reference's f16.Dot on the same
// codes.
func (h *HNSW) scoreOne(id int, q []float32) float32 {
	return f16.Dot(h.block().row(id), q)
}

// Add implements Index, inserting the vector into the graph.
func (h *HNSW) Add(vec []float32, key string) int {
	if len(vec) != h.dim {
		panic(fmt.Sprintf("vecstore: Add dim %d to HNSW of dim %d", len(vec), h.dim))
	}
	id := len(h.keys)
	h.codes = f16.AppendEncoded(h.codes, vec)
	h.keys = append(h.keys, key)
	level := h.randomLevel()
	h.levels = append(h.levels, level)
	h.links0 = append(h.links0, make([]int32, h.stride0())...)
	if level >= 1 {
		h.upperBase = append(h.upperBase, int32(len(h.upper)))
		h.upper = append(h.upper, make([]int32, level*(h.m+1))...)
	} else {
		h.upperBase = append(h.upperBase, -1)
	}

	if h.entry < 0 {
		h.entry, h.maxLv = id, level
		return id
	}

	sc := getHNSWScratch()
	defer putHNSWScratch(sc)

	// Greedy descent from the global entry to the insertion level.
	cur := h.entry
	for lv := h.maxLv; lv > level; lv-- {
		cur = h.greedyClosest(vec, cur, lv, sc)
	}
	// Insert at each level from min(level, maxLv) down to 0.
	for lv := min(level, h.maxLv); lv >= 0; lv-- {
		cands := h.searchLayer(vec, cur, h.efConstruction, lv, sc)
		if len(cands) > 0 {
			cur = cands[0].id
		}
		nbrs := selectNeighboursInto(sc.nbr, cands, h.maxLinks(lv))
		h.setNeighbours(id, lv, nbrs)
		for _, n := range nbrs {
			h.linkBack(int(n), lv, id, sc)
		}
		sc.nbr = nbrs[:0]
	}
	if level > h.maxLv {
		h.entry, h.maxLv = id, level
	}
	return id
}

func (h *HNSW) maxLinks(level int) int {
	if level == 0 {
		return 2 * h.m
	}
	return h.m
}

type scored struct {
	id    int
	score float32
}

// greedyClosest walks level lv greedily towards the query, scoring each
// node's neighbour list in one gather instead of row-by-row. The
// improvement loop replays the reference's in-order pass exactly
// (scoring is pure, so batching it first changes nothing).
func (h *HNSW) greedyClosest(q []float32, start, lv int, sc *hnswScratch) int {
	cur := start
	curScore := h.scoreOne(cur, q)
	for {
		ns := h.neighbours(cur, lv)
		if len(ns) == 0 {
			return cur
		}
		scores := sc.scoresFor(len(ns))
		gatherScores(h.block(), ns, q, scores)
		improved := false
		for i := range ns {
			if s := scores[i]; s > curScore {
				cur, curScore = int(ns[i]), s
				improved = true
			}
		}
		if !improved {
			return cur
		}
	}
}

// searchLayer is the beam search of the HNSW paper: returns up to ef
// candidates on level lv sorted by descending score. The returned slice
// aliases sc.results and is valid until the next searchLayer on sc.
func (h *HNSW) searchLayer(q []float32, start, ef, lv int, sc *hnswScratch) []scored {
	sc.beginVisit(len(h.keys))
	sc.mark(start)
	startS := scored{start, h.scoreOne(start, q)}
	// Candidate max-queue and result min-set, both kept as sorted slices
	// (ef is small; O(ef) insertion is fine and allocation-light).
	cands := append(sc.cands[:0], startS)
	results := append(sc.results[:0], startS)
	for len(cands) > 0 {
		// Pop best candidate.
		c := cands[0]
		cands = cands[1:]
		worst := results[len(results)-1]
		if c.score < worst.score && len(results) >= ef {
			break
		}
		// Collect the unvisited neighbours in stored order, then score
		// the batch in one gather; the insertion loop below replays the
		// reference's per-neighbour pass in the same order.
		fresh := sc.fresh[:0]
		for _, n := range h.neighbours(c.id, lv) {
			if sc.seen(int(n)) {
				continue
			}
			sc.mark(int(n))
			fresh = append(fresh, n)
		}
		sc.fresh = fresh[:0]
		if len(fresh) == 0 {
			continue
		}
		scores := sc.scoresFor(len(fresh))
		gatherScores(h.block(), fresh, q, scores)
		for i, n := range fresh {
			s := scored{int(n), scores[i]}
			if len(results) < ef || s.score > results[len(results)-1].score {
				cands = insertSorted(cands, s)
				results = insertSorted(results, s)
				if len(results) > ef {
					results = results[:ef]
				}
			}
		}
	}
	// Recycle whichever candidate backing grew largest; results keeps
	// its (possibly reallocated) buffer for the caller.
	if cap(cands) > cap(sc.cands) {
		sc.cands = cands[:0]
	}
	sc.results = results
	return results
}

// insertSorted inserts s into a descending-score slice.
func insertSorted(xs []scored, s scored) []scored {
	i := sort.Search(len(xs), func(i int) bool { return xs[i].score < s.score })
	xs = append(xs, scored{})
	copy(xs[i+1:], xs[i:])
	xs[i] = s
	return xs
}

// selectNeighboursInto keeps the top-n candidate ids (simple heuristic),
// reusing dst's backing.
func selectNeighboursInto(dst []int32, cands []scored, n int) []int32 {
	if len(cands) > n {
		cands = cands[:n]
	}
	dst = dst[:0]
	for _, c := range cands {
		dst = append(dst, int32(c.id))
	}
	return dst
}

// linkBack appends id to n's level-lv list, re-selecting the best links
// when the list is full — the reference's transient cap+1 append followed
// by pruneNeighbours, without needing the extra slot.
func (h *HNSW) linkBack(n, lv, id int, sc *hnswScratch) {
	blk := h.slotBlock(n, lv)
	deg := int(blk[0])
	if deg < h.maxLinks(lv) {
		blk[1+deg] = int32(id)
		blk[0] = int32(deg + 1)
		return
	}
	h.pruneNeighbours(n, lv, id, sc)
}

// pruneNeighbours re-selects node's best maxLinks(lv) links from its
// current list plus the incoming id. Candidates are built in stored order
// with the incoming id last and ranked by the same sort.Slice call as the
// jagged reference, so equal-score ties resolve identically.
func (h *HNSW) pruneNeighbours(node, lv, incoming int, sc *hnswScratch) {
	vec := sc.vecFor(h.dim)
	f16.DecodeInto(vec, h.codes[node*h.dim:(node+1)*h.dim])
	fresh := append(sc.fresh[:0], h.neighbours(node, lv)...)
	fresh = append(fresh, int32(incoming))
	sc.fresh = fresh[:0]
	scores := sc.scoresFor(len(fresh))
	gatherScores(h.block(), fresh, vec, scores)
	cands := sc.prune[:0]
	for i, n := range fresh {
		cands = append(cands, scored{int(n), scores[i]})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].score > cands[j].score })
	if limit := h.maxLinks(lv); len(cands) > limit {
		cands = cands[:limit]
	}
	blk := h.slotBlock(node, lv)
	blk[0] = int32(len(cands))
	for i, c := range cands {
		blk[1+i] = int32(c.id)
	}
	sc.prune = cands[:0]
}

// Search implements Index. Safe for concurrent use while the graph is not
// being mutated (all traversal state lives in pooled scratch).
func (h *HNSW) Search(query []float32, k int) []Result {
	if len(query) != h.dim {
		panic(fmt.Sprintf("vecstore: Search dim %d against HNSW of dim %d", len(query), h.dim))
	}
	if k <= 0 || h.entry < 0 {
		return nil
	}
	sc := getHNSWScratch()
	defer putHNSWScratch(sc)
	cur := h.entry
	for lv := h.maxLv; lv > 0; lv-- {
		cur = h.greedyClosest(query, cur, lv, sc)
	}
	ef := h.efSearch
	if ef < k {
		ef = k
	}
	cands := h.searchLayer(query, cur, ef, 0, sc)
	if len(cands) > k {
		cands = cands[:k]
	}
	out := make([]Result, len(cands))
	for i, c := range cands {
		out[i] = Result{ID: c.id, Score: c.score, Key: h.keys[c.id]}
	}
	return out
}

// SearchBatch implements Index. Graph traversals visit different rows per
// query, so there is no row to score against the whole batch the way flat
// scans do; the batch fans out query-per-worker (each worker drawing its
// own pooled scratch).
func (h *HNSW) SearchBatch(queries [][]float32, k int) [][]Result {
	return h.searchBatch(queries, k, nil)
}

// searchBatch books the whole fan-out under Scan: each beam already
// returns descending order, so there is no merge phase to report.
func (h *HNSW) searchBatch(queries [][]float32, k int, tm *ScanTiming) [][]Result {
	checkBatchDims(queries, h.dim)
	out := make([][]Result, len(queries))
	if k <= 0 || len(queries) == 0 || h.entry < 0 {
		return out
	}
	defer tm.bookScan(time.Now())
	pipeline.For(len(queries), 0, func(i int) {
		out[i] = h.Search(queries[i], k)
	})
	return out
}

// flatView returns an exact-scan view over the same code block, sharing
// the codes and deriving the first-pass state. FP16 encode∘decode is the
// identity on stored codes, so the view scores exactly like a Flat rebuilt
// from the decoded vectors.
func (h *HNSW) flatView() *Flat {
	return NewFlatFromCodes(h.dim, h.codes, h.keys)
}

// RecallAgainst measures recall@k against a prebuilt exact index over the
// same corpus; sweep-style callers pay for the reference answers once per
// call instead of rebuilding the index itself.
func (h *HNSW) RecallAgainst(exact *Flat, queries [][]float32, k int) float64 {
	return recallAgainst(exact, h, queries, k)
}

// Recall measures HNSW recall against an exact scan of the same data,
// using a zero-copy Flat view rather than rebuilding the exact index.
func (h *HNSW) Recall(queries [][]float32, k int) float64 {
	return h.RecallAgainst(h.flatView(), queries, k)
}
