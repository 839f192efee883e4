package vecstore

import (
	"fmt"
	"sync"
	"time"
)

// Live ingestion layer: an LSM-flavoured mutable tier over the exact
// index. Writes land in a Memtable — a Flat behind a read-write lock, so it
// accepts Add concurrently with Search — scanned alongside an immutable
// Flat base, with the two top-k sets merged under the package's total
// order (score desc, id asc). Both tiers score through Flat's own scan and
// ids are assigned as base.Len()+row, so a Live search is bit-identical to
// a Flat index over the union corpus (the property pinned by
// TestLiveMatchesFlatUnion).
//
// Compaction follows the snapshot discipline of the serving layer: the
// slow step (CompactBase) appends a prefix of the memtable's rows, their
// first-pass state included, to a header copy of the base while readers
// and writers proceed; the fast step (Rotate) runs under the caller's
// write lock and produces a successor Live whose fresh memtable carries
// only the rows added since the compaction cut. Acked ids are stable
// across compaction: row r of the memtable is id base.Len()+r before, and
// id newBase.Len()+(r-n) == base.Len()+r after draining n rows.

// Memtable is a concurrency-safe exact FP16 index: a Flat whose Add may
// run concurrently with Search, Len and Key. Every read scans a by-value
// view of the Flat taken under the read lock; rows are append-only, so a
// view never changes after capture.
type Memtable struct {
	mu sync.RWMutex
	f  Flat
}

// NewMemtable returns an empty mutable exact index.
func NewMemtable(dim int) *Memtable {
	return &Memtable{f: *NewFlat(dim)}
}

// Add implements Index; it is safe to call concurrently with Search.
func (mt *Memtable) Add(vec []float32, key string) int {
	mt.mu.Lock()
	defer mt.mu.Unlock()
	return mt.f.Add(vec, key)
}

// view returns a Flat over rows [lo, hi), first-pass state included. Only
// the slice headers need the lock; capacities are clipped so the view
// never reaches rows appended after it.
func (mt *Memtable) view(lo, hi int) Flat {
	d := mt.f.dim
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return Flat{dim: d, codes: mt.f.codes[lo*d : hi*d : hi*d], keys: mt.f.keys[lo:hi:hi],
		i8: mt.f.i8[lo*d : hi*d : hi*d], bnd: mt.f.bnd[lo:hi:hi]}
}

// snapshot returns a view of every row present at call time.
func (mt *Memtable) snapshot() Flat {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return mt.f
}

// Len implements Index.
func (mt *Memtable) Len() int {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return mt.f.Len()
}

// Dim implements Index.
func (mt *Memtable) Dim() int { return mt.f.dim }

// Key returns the metadata key for id.
func (mt *Memtable) Key(id int) string {
	mt.mu.RLock()
	defer mt.mu.RUnlock()
	return mt.f.Key(id)
}

// Search implements Index with Flat's scan over the rows present at call
// time.
func (mt *Memtable) Search(query []float32, k int) []Result {
	v := mt.snapshot()
	return v.Search(query, k)
}

// SearchBatch implements Index; the whole batch is answered from one row
// snapshot through Flat's multi-query kernel.
func (mt *Memtable) SearchBatch(queries [][]float32, k int) [][]Result {
	return mt.searchBatch(queries, k, nil)
}

func (mt *Memtable) searchBatch(queries [][]float32, k int, tm *ScanTiming) [][]Result {
	v := mt.snapshot()
	return v.searchBatch(queries, k, tm)
}

// MemoryBytes reports FP16 row storage plus the first-pass state, for
// StatsOf.
func (mt *Memtable) MemoryBytes() int64 {
	v := mt.snapshot()
	return v.MemoryBytes()
}

// appendRows appends every row of src, its key and derived first-pass
// state included, to ix. Nothing is re-encoded or re-derived: the rows
// hold exactly what Add gave them.
func (ix *Flat) appendRows(src *Flat) {
	ix.codes = append(ix.codes, src.codes...)
	ix.keys = append(ix.keys, src.keys...)
	ix.i8 = append(ix.i8, src.i8...)
	ix.bnd = append(ix.bnd, src.bnd...)
}

// Live is the mutable serving index: an immutable Flat base plus a
// Memtable. Search and Add may run concurrently; ids are assigned in union
// order (base rows keep their ids, memtable row r is id base.Len()+r), so
// results merge under the total order exactly as one Flat over the union.
type Live struct {
	base *Flat
	mem  *Memtable
	nb   int // base.Len(), frozen: the base is immutable under a Live
	dim  int
}

// NewLive wraps an immutable Flat base in a mutable layer. A nil mem
// starts an empty memtable. The base must not be mutated afterwards.
func NewLive(base *Flat, mem *Memtable) *Live {
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
func (lv *Live) Base() *Flat { return lv.base }

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

// CompactBase is the slow half of a compaction: it appends the first n
// memtable rows, with their first-pass state, to a header copy of the
// base. Readers and writers may proceed concurrently — rows [0,n) are
// frozen by append-only growth, and the copy may share the base's backing
// arrays but only ever writes past the base's visible length.
func (lv *Live) CompactBase(n int) (*Flat, error) {
	if n < 0 || n > lv.mem.Len() {
		return nil, fmt.Errorf("vecstore: CompactBase(%d) outside memtable of %d rows", n, lv.mem.Len())
	}
	newBase := *lv.base
	rows := lv.mem.view(0, n)
	newBase.appendRows(&rows)
	return &newBase, nil
}

// Rotate is the fast half of a compaction: it returns the successor Live
// serving newBase (which must hold exactly the old base plus memtable rows
// [0,n), i.e. the CompactBase result) with a fresh memtable seeded with
// the rows added since the cut. The caller MUST exclude writers (hold the
// route write lock) across Rotate and the snapshot publish; readers of the
// old Live are unaffected. Ids are stable: old id nb+r == new id
// newBase.Len()+(r-n) for every surviving memtable row.
func (lv *Live) Rotate(newBase *Flat, n int) *Live {
	if want := lv.nb + n; newBase.Len() != want {
		panic(fmt.Sprintf("vecstore: Rotate base has %d rows, want %d", newBase.Len(), want))
	}
	fresh := NewMemtable(lv.dim)
	rest := lv.mem.view(n, lv.mem.Len())
	fresh.f.appendRows(&rest)
	return &Live{base: newBase, mem: fresh, nb: newBase.Len(), dim: lv.dim}
}
