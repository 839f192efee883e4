package vecstore

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/f16"
)

// Live ingestion layer: an LSM-flavoured mutable tier over the read-only
// indexes. Writes land in a Memtable — a small exact Flat-equivalent table
// that accepts Add concurrently with Search — scanned alongside an
// immutable trained base index, with the two top-k sets merged under the
// package's total order (score desc, id asc). Because the memtable stores
// FP16 codes and scores them through the same halfBlock kernel as Flat,
// and ids are assigned as base.Len()+row, a Live search is bit-identical
// to a Flat index over the union corpus whenever the base is exact (the
// property pinned by TestLiveMatchesFlatUnion).
//
// Compaction follows the snapshot discipline of the serving layer: the
// slow step (CompactBase) appends a prefix of the memtable to a clone of
// the base (a Flat or an HNSW; IVF-PQ is build-once and cannot take rows)
// while readers and writers proceed; the fast step (Rotate) runs under the
// caller's write lock and produces a successor Live whose fresh memtable
// carries only the rows added since the compaction cut. Acked ids are
// stable across compaction: row r of the memtable is id base.Len()+r
// before, and id newBase.Len()+(r-n) == base.Len()+r after draining n rows.

// Memtable is a concurrency-safe exact FP16 index: Add may run
// concurrently with Search, Len and Key. Scoring is bit-identical to Flat
// over the same vectors (same FP16 encoding, same blocked-scan kernel).
type Memtable struct {
	dim   int
	mu    sync.RWMutex
	codes []uint16 // row i at codes[i*dim:(i+1)*dim]
	keys  []string
	i8    []int8     // first-pass codes, as Flat's
	bnd   []rowBound // first-pass bounds, as Flat's
}

// NewMemtable returns an empty mutable exact index.
func NewMemtable(dim int) *Memtable {
	if dim <= 0 {
		panic("vecstore: non-positive dim")
	}
	return &Memtable{dim: dim}
}

// Add implements Index; it is safe to call concurrently with Search.
func (mt *Memtable) Add(vec []float32, key string) int {
	if len(vec) != mt.dim {
		panic(fmt.Sprintf("vecstore: Add dim %d to memtable of dim %d", len(vec), mt.dim))
	}
	mt.mu.Lock()
	at := len(mt.codes)
	mt.codes = f16.AppendEncoded(mt.codes, vec)
	mt.keys = append(mt.keys, key)
	mt.i8, mt.bnd = appendFirstPass(mt.i8, mt.bnd, mt.codes[at:], mt.dim)
	id := len(mt.keys) - 1
	mt.mu.Unlock()
	return id
}

// Len implements Index.
func (mt *Memtable) Len() int {
	mt.mu.RLock()
	n := len(mt.keys)
	mt.mu.RUnlock()
	return n
}

// Dim implements Index.
func (mt *Memtable) Dim() int { return mt.dim }

// Key returns the metadata key for id.
func (mt *Memtable) Key(id int) string {
	mt.mu.RLock()
	k := mt.keys[id]
	mt.mu.RUnlock()
	return k
}

// snapshot returns stable views of rows [lo, hi), first-pass state
// included. Rows are append-only, so the returned slices never change
// after capture; only the slice headers need the lock.
func (mt *Memtable) snapshot(lo, hi int) (b halfBlock, keys []string) {
	d := mt.dim
	mt.mu.RLock()
	b = halfBlock{codes: mt.codes[lo*d : hi*d : hi*d], dim: d, i8: mt.i8[lo*d : hi*d : hi*d], bnd: mt.bnd[lo:hi:hi]}
	keys = mt.keys[lo:hi:hi]
	mt.mu.RUnlock()
	return b, keys
}

// Search implements Index with the same blocked scan as Flat, over the
// rows present at call time.
func (mt *Memtable) Search(query []float32, k int) []Result {
	if len(query) != mt.dim {
		panic("vecstore: Search dim mismatch")
	}
	b, keys := mt.snapshot(0, mt.Len())
	if k <= 0 || len(keys) == 0 {
		return nil
	}
	return searchBlock(b, query, k, keys, nil)
}

// SearchBatch implements Index; the whole batch is answered from one row
// snapshot through the FP16 multi-query kernel.
func (mt *Memtable) SearchBatch(queries [][]float32, k int) [][]Result {
	return mt.searchBatch(queries, k, nil)
}

func (mt *Memtable) searchBatch(queries [][]float32, k int, tm *ScanTiming) [][]Result {
	checkBatchDims(queries, mt.dim)
	b, keys := mt.snapshot(0, mt.Len())
	return searchBlockBatch(b, queries, k, keys, tm)
}

// MemoryBytes reports FP16 row storage plus the first-pass state, for
// StatsOf.
func (mt *Memtable) MemoryBytes() int64 {
	return int64(mt.Len()) * int64(f16.BytesPerVector(mt.dim)+firstPassBytes(mt.dim))
}

// AppendableCloner is implemented by indexes that can produce a cheap
// clone that accepts Add without disturbing rows served through the
// original — the compaction encode target. Clones may share backing
// arrays with the original: appends only ever write past the original's
// visible lengths, so concurrent readers of the original are safe.
type AppendableCloner interface {
	Index
	CloneForAppend() Index
}

// CloneForAppend implements AppendableCloner for Flat.
func (ix *Flat) CloneForAppend() Index {
	cp := *ix
	return &cp
}

// CloneForAppend implements AppendableCloner for HNSW: the adjacency
// arenas are deep-copied because graph inserts rewrite existing nodes'
// slot blocks in place (backlinks, prunes), while the append-only arrays
// — codes, keys, levels, upperBase — are shared with the original (new
// nodes only ever write past its visible lengths). The rng is copied by
// value so continued construction on the clone draws the same level
// stream the original would have.
func (h *HNSW) CloneForAppend() Index {
	cp := *h
	cp.links0 = append([]int32(nil), h.links0...)
	cp.upper = append([]int32(nil), h.upper...)
	r := *h.rand
	cp.rand = &r
	return &cp
}

// Live is the mutable serving index: an immutable base plus a Memtable.
// Search and Add may run concurrently; ids are assigned in union order
// (base rows keep their ids, memtable row r is id base.Len()+r), so
// results merge under the total order exactly as one Flat over the union.
type Live struct {
	base Index
	mem  *Memtable
	nb   int // base.Len(), frozen: the base is immutable under a Live
	dim  int
}

// NewLive wraps an immutable base index in a mutable layer. A nil mem
// starts an empty memtable. The base must not be mutated afterwards.
func NewLive(base Index, mem *Memtable) *Live {
	if base == nil {
		panic("vecstore: NewLive nil base")
	}
	if mem == nil {
		mem = NewMemtable(base.Dim())
	}
	if mem.Dim() != base.Dim() {
		panic(fmt.Sprintf("vecstore: NewLive memtable dim %d != base dim %d", mem.Dim(), base.Dim()))
	}
	return &Live{base: base, mem: mem, nb: base.Len(), dim: base.Dim()}
}

// Add implements Index, appending to the memtable. Safe concurrently with
// Search. The returned id is stable across compactions.
func (lv *Live) Add(vec []float32, key string) int {
	return lv.nb + lv.mem.Add(vec, key)
}

// Len implements Index.
func (lv *Live) Len() int { return lv.nb + lv.mem.Len() }

// Dim implements Index.
func (lv *Live) Dim() int { return lv.dim }

// MemLen reports the number of memtable (not yet compacted) rows.
func (lv *Live) MemLen() int { return lv.mem.Len() }

// Base exposes the immutable base index (stats, persistence).
func (lv *Live) Base() Index { return lv.base }

// Key returns the metadata key for id, from the base or the memtable.
func (lv *Live) Key(id int) string {
	if id < lv.nb {
		return lv.base.Key(id)
	}
	return lv.mem.Key(id - lv.nb)
}

// mergeLive folds the base and memtable top-k candidate sets under the
// package total order (score desc, id asc) — the same order mergeHeaps
// uses, so the merge is exact: the union's true top-k is contained in the
// union of the two per-tier top-k sets. mem ids arrive memtable-local and
// are lifted by nb here.
func mergeLive(base, mem []Result, nb, k int) []Result {
	if len(mem) == 0 && len(base) == 0 {
		return nil
	}
	merged := make([]Result, 0, len(base)+len(mem))
	merged = append(merged, base...)
	for _, r := range mem {
		r.ID += nb
		merged = append(merged, r)
	}
	sortResults(merged)
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

// Search implements Index: the base and the memtable are each searched for
// their top-k, and the two sets merge under the total order.
func (lv *Live) Search(query []float32, k int) []Result {
	if len(query) != lv.dim {
		panic("vecstore: Search dim mismatch")
	}
	if k <= 0 {
		return nil
	}
	var base []Result
	if lv.nb > 0 {
		base = lv.base.Search(query, k)
	}
	mem := lv.mem.Search(query, k)
	return mergeLive(base, mem, lv.nb, k)
}

// SearchBatch implements Index: the base answers through its own
// multi-query kernel, the memtable through its snapshot batch scan, and
// each query's two sets merge as in Search.
func (lv *Live) SearchBatch(queries [][]float32, k int) [][]Result {
	return lv.searchBatch(queries, k, nil)
}

// searchBatch books the base kernel plus the memtable snapshot scan under
// Scan, and the per-query fold of the two result sets under Merge.
func (lv *Live) searchBatch(queries [][]float32, k int, tm *ScanTiming) [][]Result {
	checkBatchDims(queries, lv.dim)
	out := make([][]Result, len(queries))
	if k <= 0 || len(queries) == 0 {
		return out
	}
	scanStart := time.Now()
	var base [][]Result
	if lv.nb > 0 {
		base = lv.base.SearchBatch(queries, k)
	}
	mem := lv.mem.SearchBatch(queries, k)
	mergeStart := time.Now()
	for qi := range queries {
		var b []Result
		if base != nil {
			b = base[qi]
		}
		out[qi] = mergeLive(b, mem[qi], lv.nb, k)
	}
	tm.book(scanStart, mergeStart)
	return out
}

// MemoryBytes reports base plus memtable storage, for StatsOf.
func (lv *Live) MemoryBytes() int64 {
	return lv.base.MemoryBytes() + lv.mem.MemoryBytes()
}

// CompactBase is the slow half of a compaction: it clones the base and
// appends the first n memtable rows to the clone through the base's own
// Add path; a base that is not an AppendableCloner (IVF-PQ) fails here.
// Readers and writers may proceed concurrently — rows [0,n) are frozen by
// append-only growth, and the clone never disturbs rows visible through
// the original base.
func (lv *Live) CompactBase(n int) (Index, error) {
	cl, ok := lv.base.(AppendableCloner)
	if !ok {
		return nil, fmt.Errorf("vecstore: base %T does not support compaction (no CloneForAppend)", lv.base)
	}
	if n < 0 || n > lv.mem.Len() {
		return nil, fmt.Errorf("vecstore: CompactBase(%d) outside memtable of %d rows", n, lv.mem.Len())
	}
	newBase := cl.CloneForAppend()
	b, keys := lv.mem.snapshot(0, n)
	buf := make([]float32, lv.dim)
	for r := 0; r < n; r++ {
		f16.DecodeInto(buf, b.row(r))
		newBase.Add(buf, keys[r])
	}
	return newBase, nil
}

// Rotate is the fast half of a compaction: it returns the successor Live
// serving newBase (which must hold exactly the old base plus memtable rows
// [0,n), i.e. the CompactBase result) with a fresh memtable seeded with
// the rows added since the cut. The caller MUST exclude writers (hold the
// route write lock) across Rotate and the snapshot publish; readers of the
// old Live are unaffected. Ids are stable: old id nb+r == new id
// newBase.Len()+(r-n) for every surviving memtable row.
func (lv *Live) Rotate(newBase Index, n int) *Live {
	if want := lv.nb + n; newBase.Len() != want {
		panic(fmt.Sprintf("vecstore: Rotate base has %d rows, want %d", newBase.Len(), want))
	}
	m := lv.mem.Len()
	fresh := NewMemtable(lv.dim)
	b, keys := lv.mem.snapshot(n, m)
	fresh.codes = append(fresh.codes, b.codes...)
	fresh.keys = append(fresh.keys, keys...)
	fresh.i8 = append(fresh.i8, b.i8...)
	fresh.bnd = append(fresh.bnd, b.bnd...)
	return &Live{base: newBase, mem: fresh, nb: newBase.Len(), dim: lv.dim}
}
