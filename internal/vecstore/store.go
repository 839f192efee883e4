package vecstore

import (
	"fmt"
	"sort"

	"repro/internal/f16"
)

// Result is one search hit.
type Result struct {
	ID    int     // position of the vector in insertion order
	Score float32 // inner product with the query (cosine for unit vectors)
	Key   string  // the metadata key attached at Add time
}

// Index is the common interface of the package's indexes.
type Index interface {
	// Add appends a vector with an associated metadata key. The vector is
	// copied into FP16 storage. Returns the assigned id.
	Add(vec []float32, key string) int
	// Search returns the top-k vectors by inner product with the query,
	// in descending score order.
	Search(query []float32, k int) []Result
	// SearchBatch answers all queries at once through the family's own
	// batch kernel, returning per-query results in query order. Each
	// result slice is identical to what Search would return for that
	// query.
	SearchBatch(queries [][]float32, k int) [][]Result
	// Len reports the number of stored vectors.
	Len() int
	// Dim reports the vector dimensionality.
	Dim() int
	// Key returns the metadata key attached to id at Add time.
	Key(id int) string
	// MemoryBytes reports vector/code storage, codebooks included, keys
	// excluded (see StatsOf).
	MemoryBytes() int64
	// searchBatch is SearchBatch booking its phases into tm when tm is
	// non-nil (see BatchSearchTimed).
	searchBatch(queries [][]float32, k int, tm *ScanTiming) [][]Result
}

// Flat is an exact exhaustive-scan index over one contiguous FP16 code
// block, with the int8 first-pass state derived from it (firstpass.go).
type Flat struct {
	dim   int
	codes []uint16 // row i at codes[i*dim:(i+1)*dim]
	keys  []string
	i8    []int8     // first-pass codes, row i at i8[i*dim:(i+1)*dim]
	bnd   []rowBound // first-pass bounds, row i at bnd[i]
}

// NewFlat returns an empty exact index of the given dimensionality.
func NewFlat(dim int) *Flat {
	if dim <= 0 {
		panic("vecstore: non-positive dim")
	}
	return &Flat{dim: dim}
}

// Add implements Index.
func (ix *Flat) Add(vec []float32, key string) int {
	if len(vec) != ix.dim {
		panic(fmt.Sprintf("vecstore: Add dim %d to index of dim %d", len(vec), ix.dim))
	}
	ix.codes = f16.AppendEncoded(ix.codes, vec)
	ix.keys = append(ix.keys, key)
	ix.deriveFirstPass()
	return len(ix.keys) - 1
}

// deriveFirstPass derives the first-pass state of the rows that lack it:
// the row just added, or every row of a loaded or viewed code block.
func (ix *Flat) deriveFirstPass() {
	ix.i8, ix.bnd = appendFirstPass(ix.i8, ix.bnd, ix.codes[len(ix.bnd)*ix.dim:], ix.dim)
}

// Len implements Index.
func (ix *Flat) Len() int { return len(ix.keys) }

// Dim implements Index.
func (ix *Flat) Dim() int { return ix.dim }

// Key returns the metadata key for id.
func (ix *Flat) Key(id int) string { return ix.keys[id] }

// row returns the FP16 codes of row id.
func (ix *Flat) row(id int) []uint16 { return ix.codes[id*ix.dim : (id+1)*ix.dim] }

func (ix *Flat) block() halfBlock {
	return halfBlock{codes: ix.codes, dim: ix.dim, i8: ix.i8, bnd: ix.bnd}
}

// Vector decodes and returns the stored vector for id. Hot readers should
// prefer VectorInto, which reuses a caller-supplied buffer.
func (ix *Flat) Vector(id int) []float32 {
	out := make([]float32, ix.dim)
	ix.VectorInto(out, id)
	return out
}

// VectorInto decodes the stored vector for id into dst, whose length must
// equal Dim. It performs no allocation.
func (ix *Flat) VectorInto(dst []float32, id int) {
	f16.DecodeInto(dst, ix.row(id))
}

// Search implements Index with an exact blocked scan (segment-parallel for
// large indexes).
func (ix *Flat) Search(query []float32, k int) []Result {
	return ix.SearchInto(query, k, nil)
}

// SearchInto is Search appending into dst[:0], letting steady-state callers
// reuse one result buffer across queries for a zero-allocation search path.
func (ix *Flat) SearchInto(query []float32, k int, dst []Result) []Result {
	if len(query) != ix.dim {
		panic("vecstore: Search dim mismatch")
	}
	if k <= 0 || len(ix.keys) == 0 {
		return dst[:0]
	}
	return searchBlock(ix.block(), query, k, ix.keys, dst[:0])
}

// SearchBatch implements Index with the multi-query kernel: each group of
// up to eight rows is scored against the whole batch while it is in cache.
func (ix *Flat) SearchBatch(queries [][]float32, k int) [][]Result {
	return ix.searchBatch(queries, k, nil)
}

func (ix *Flat) searchBatch(queries [][]float32, k int, tm *ScanTiming) [][]Result {
	checkBatchDims(queries, ix.dim)
	return searchBlockBatch(ix.block(), queries, k, ix.keys, tm)
}

// searchReference is the retained reference scalar scan: one row decoded
// and scored at a time, no tiling, no pooling, no parallelism. The blocked
// kernel must reproduce it bit-for-bit (see parity_test.go).
func (ix *Flat) searchReference(query []float32, k int) []Result {
	if len(query) != ix.dim {
		panic("vecstore: Search dim mismatch")
	}
	if k <= 0 || len(ix.keys) == 0 {
		return nil
	}
	h := newTopK(k)
	for id := 0; id < len(ix.keys); id++ {
		h.push(id, f16.Dot(ix.row(id), query))
	}
	return h.results(ix.keys)
}

// MemoryBytes reports the size of vector storage: the FP16 codes (the
// paper quotes 747 MB FP16) plus the derived first-pass state.
func (ix *Flat) MemoryBytes() int64 {
	return int64(len(ix.keys)) * int64(f16.BytesPerVector(ix.dim)+firstPassBytes(ix.dim))
}

// topK is a bounded heap of (id, score) keeping the k best entries under
// the total order "score descending, then id ascending". The root is the
// worst retained entry. Using a total order (rather than score alone)
// makes the selection a pure function of the pushed set, so per-segment
// heaps merge into exactly the sequential result.
type topK struct {
	k      int
	ids    []int
	scores []float32
}

func newTopK(k int) *topK {
	return &topK{k: k, ids: make([]int, 0, k+1), scores: make([]float32, 0, k+1)}
}

// worse reports whether entry (s1,id1) ranks strictly below (s2,id2). A
// NaN score ranks below every number, so the order stays total when a
// non-finite row scores NaN and no selection depends on push order.
func worse(s1 float32, id1 int, s2 float32, id2 int) bool {
	switch {
	case s1 < s2:
		return true
	case s1 > s2:
		return false
	case s1 == s2:
		return id1 > id2
	}
	if n1, n2 := s1 != s1, s2 != s2; n1 != n2 {
		return n1
	}
	return id1 > id2
}

func (h *topK) push(id int, score float32) {
	if len(h.ids) < h.k {
		h.ids = append(h.ids, id)
		h.scores = append(h.scores, score)
		h.up(len(h.ids) - 1)
		return
	}
	if !worse(h.scores[0], h.ids[0], score, id) {
		return
	}
	h.ids[0], h.scores[0] = id, score
	h.down(0)
}

func (h *topK) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !worse(h.scores[i], h.ids[i], h.scores[p], h.ids[p]) {
			break
		}
		h.scores[p], h.scores[i] = h.scores[i], h.scores[p]
		h.ids[p], h.ids[i] = h.ids[i], h.ids[p]
		i = p
	}
}

func (h *topK) down(i int) {
	n := len(h.ids)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && worse(h.scores[l], h.ids[l], h.scores[small], h.ids[small]) {
			small = l
		}
		if r < n && worse(h.scores[r], h.ids[r], h.scores[small], h.ids[small]) {
			small = r
		}
		if small == i {
			return
		}
		h.scores[small], h.scores[i] = h.scores[i], h.scores[small]
		h.ids[small], h.ids[i] = h.ids[i], h.ids[small]
		i = small
	}
}

// results drains the heap into descending order and attaches keys.
func (h *topK) results(keys []string) []Result {
	return h.appendResults(make([]Result, 0, len(h.ids)), keys)
}

// appendResults appends the heap's entries to dst in descending order.
func (h *topK) appendResults(dst []Result, keys []string) []Result {
	start := len(dst)
	for i, id := range h.ids {
		dst = append(dst, Result{ID: id, Score: h.scores[i], Key: keys[id]})
	}
	sortResults(dst[start:])
	return dst
}

// sortResults orders results by score descending, id ascending. Small
// slices (the usual top-k) use an allocation-free insertion sort.
func sortResults(rs []Result) {
	if len(rs) <= 64 {
		for i := 1; i < len(rs); i++ {
			x := rs[i]
			j := i
			for j > 0 && worse(rs[j-1].Score, rs[j-1].ID, x.Score, x.ID) {
				rs[j] = rs[j-1]
				j--
			}
			rs[j] = x
		}
		return
	}
	sort.Slice(rs, func(i, j int) bool {
		return worse(rs[j].Score, rs[j].ID, rs[i].Score, rs[i].ID)
	})
}

// IndexStats describes an index's storage profile for reports (the
// recall/memory/QPS trade-off tables rendered by internal/eval).
type IndexStats struct {
	Kind    string // index family, e.g. "Flat(FP16)", "HNSW(M=16,efSearch=32)"
	Vectors int
	Dim     int
	Bytes   int64 // vector/code storage incl. codebooks, excl. keys
}

// BytesPerVector returns the per-row storage cost, codebooks amortised.
func (s IndexStats) BytesPerVector() float64 {
	if s.Vectors == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.Vectors)
}

// StatsOf inspects an index's concrete type and reports its storage
// profile.
func StatsOf(ix Index) IndexStats {
	st := IndexStats{Kind: "?", Vectors: ix.Len(), Dim: ix.Dim(), Bytes: ix.MemoryBytes()}
	switch v := ix.(type) {
	case *Flat:
		st.Kind = "Flat(FP16)"
	case *IVFPQ:
		variant := ""
		if vr := v.Variant(); vr != "" {
			variant = "," + vr
		}
		st.Kind = fmt.Sprintf("IVF-PQ(nlist=%d,nprobe=%d,m=%d%s)", v.NList(), v.NProbe(), v.M(), variant)
	case *HNSW:
		st.Kind = fmt.Sprintf("HNSW(M=%d,efSearch=%d)", v.M(), v.EfSearch())
	case *Memtable:
		st.Kind = "Memtable(FP16)"
	case *Live:
		st.Kind = fmt.Sprintf("Live(%s, mem=%d)", StatsOf(v.Base()).Kind, v.MemLen())
	}
	return st
}
