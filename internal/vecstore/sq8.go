package vecstore

import (
	"fmt"
	"math"

	"repro/internal/f16"
)

// SQ8 is a scalar-quantized exact index (FAISS IndexScalarQuantizer with
// QT_8bit): each dimension is linearly mapped to an int8 code using
// per-dimension min/max learned from the data, quartering memory relative
// to FP16 at a small recall cost. Codes live in one contiguous []int8
// block (row i at codes[i*dim:(i+1)*dim]) and searches run through the
// same blocked scan loop as Flat, reconstructing a tile of rows into
// FP32 scratch before the dot products. Train must be called after the
// final Add and before Search (codes are derived from the training
// statistics).
type SQ8 struct {
	dim     int
	staged  []uint16 // contiguous FP16 staging until Train
	codes   []int8   // contiguous codes after Train
	keys    []string
	lo, hi  []float32 // per-dimension quantization range
	scale   []float32 // (hi-lo)/255
	trained bool
}

// NewSQ8 returns an empty scalar-quantized index.
func NewSQ8(dim int) *SQ8 {
	if dim <= 0 {
		panic("vecstore: non-positive dim")
	}
	return &SQ8{dim: dim}
}

// Add implements Index (staging vectors until Train).
func (ix *SQ8) Add(vec []float32, key string) int {
	if len(vec) != ix.dim {
		panic(fmt.Sprintf("vecstore: Add dim %d to SQ8 of dim %d", len(vec), ix.dim))
	}
	if ix.trained {
		panic("vecstore: SQ8 Add after Train")
	}
	ix.staged = f16.AppendEncoded(ix.staged, vec)
	ix.keys = append(ix.keys, key)
	return len(ix.keys) - 1
}

// Train learns per-dimension ranges and quantizes all staged vectors into
// the contiguous code block.
func (ix *SQ8) Train() {
	n := len(ix.keys)
	if n == 0 {
		panic("vecstore: Train on empty SQ8")
	}
	ix.lo = make([]float32, ix.dim)
	ix.hi = make([]float32, ix.dim)
	for d := range ix.lo {
		ix.lo[d] = float32(math.Inf(1))
		ix.hi[d] = float32(math.Inf(-1))
	}
	for i := 0; i < n; i++ {
		row := ix.staged[i*ix.dim : (i+1)*ix.dim]
		for d, h := range row {
			v := f16.ToFloat32(h)
			if v < ix.lo[d] {
				ix.lo[d] = v
			}
			if v > ix.hi[d] {
				ix.hi[d] = v
			}
		}
	}
	ix.scale = make([]float32, ix.dim)
	for d := range ix.scale {
		r := ix.hi[d] - ix.lo[d]
		if r <= 0 {
			r = 1
		}
		ix.scale[d] = r / 255
	}
	ix.codes = make([]int8, n*ix.dim)
	for i := 0; i < n; i++ {
		row := ix.staged[i*ix.dim : (i+1)*ix.dim]
		out := ix.codes[i*ix.dim : (i+1)*ix.dim]
		for d, h := range row {
			v := f16.ToFloat32(h)
			q := (v - ix.lo[d]) / ix.scale[d]
			if q < 0 {
				q = 0
			}
			if q > 255 {
				q = 255
			}
			out[d] = int8(int(q+0.5) - 128)
		}
	}
	ix.staged = nil
	ix.trained = true
}

// Trained reports whether codes have been built.
func (ix *SQ8) Trained() bool { return ix.trained }

// block wraps the contiguous codes for the scan kernel.
func (ix *SQ8) block() sq8Block {
	return sq8Block{codes: ix.codes, lo: ix.lo, scale: ix.scale, dim: ix.dim}
}

// Len implements Index.
func (ix *SQ8) Len() int { return len(ix.keys) }

// Dim implements Index.
func (ix *SQ8) Dim() int { return ix.dim }

// Key returns the metadata key for id.
func (ix *SQ8) Key(id int) string { return ix.keys[id] }

// Search implements Index with an exact blocked scan over quantized codes.
func (ix *SQ8) Search(query []float32, k int) []Result {
	if !ix.trained {
		panic("vecstore: SQ8 Search before Train")
	}
	if len(query) != ix.dim {
		panic("vecstore: Search dim mismatch")
	}
	if k <= 0 || len(ix.keys) == 0 {
		return nil
	}
	return searchBlock(ix.block(), query, k, ix.keys, nil)
}

// SearchBatch implements BatchSearcher with the multi-query kernel (each
// reconstructed tile is scored against the whole batch).
func (ix *SQ8) SearchBatch(queries [][]float32, k int) [][]Result {
	if !ix.trained {
		panic("vecstore: SQ8 Search before Train")
	}
	for _, q := range queries {
		if len(q) != ix.dim {
			panic("vecstore: Search dim mismatch")
		}
	}
	if k <= 0 || len(ix.keys) == 0 {
		return make([][]Result, len(queries))
	}
	return searchBlockBatch(ix.block(), queries, k, ix.keys)
}

// searchReference is the retained reference scalar scan — the seed's exact
// loop: reconstruct each dimension and accumulate the products into a
// single sum, one row at a time. The blocked kernel preserves this
// accumulation order (sq8Block.Dot) so scores match bit-for-bit (see
// parity_test.go).
func (ix *SQ8) searchReference(query []float32, k int) []Result {
	if !ix.trained {
		panic("vecstore: SQ8 Search before Train")
	}
	if len(query) != ix.dim {
		panic("vecstore: Search dim mismatch")
	}
	if k <= 0 || len(ix.keys) == 0 {
		return nil
	}
	h := newTopK(k)
	for id := 0; id < len(ix.keys); id++ {
		code := ix.codes[id*ix.dim : (id+1)*ix.dim]
		var s float32
		for d, c := range code {
			s += (ix.lo[d] + (float32(int(c)+128)+0.5)*ix.scale[d]) * query[d]
		}
		h.push(id, s)
	}
	return h.results(ix.keys)
}

// MemoryBytes reports code storage (1 byte/dimension plus ranges).
func (ix *SQ8) MemoryBytes() int64 {
	return int64(ix.Len())*int64(ix.dim) + int64(8*ix.dim)
}

// Recall measures SQ8 ranking fidelity against an exact FP16 scan of the
// original full-precision vectors, when those are provided.
func (ix *SQ8) Recall(originals [][]float32, queries [][]float32, k int) float64 {
	if len(queries) == 0 || len(originals) != ix.Len() {
		return 0
	}
	flat := NewFlat(ix.dim)
	for i, v := range originals {
		flat.Add(v, ix.keys[i])
	}
	var hits, total int
	for _, q := range queries {
		exact := flat.Search(q, k)
		got := map[int]bool{}
		for _, r := range ix.Search(q, k) {
			got[r.ID] = true
		}
		for _, r := range exact {
			total++
			if got[r.ID] {
				hits++
			}
		}
	}
	return float64(hits) / float64(total)
}
