package embed

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/f16"
	"repro/internal/rng"
	"repro/internal/tokenizer"
)

// Default hyperparameters of the encoder; chosen so a full-scale corpus
// (173k chunks) fits comfortably in memory as FP16 while retrieval quality
// stays high (see package tests for nearest-neighbour sanity checks).
const (
	DefaultDim  = 384
	hashSpace   = 1 << 18
	ngramSize   = 3
	projPerFeat = 8 // non-zeros per hashed feature in the sparse projection
)

// Encoder converts text to dense unit vectors. It is immutable after
// construction and safe for concurrent use.
type Encoder struct {
	dim  int
	seed uint64
	// proj is the sparse random projection: hashed feature f maps to
	// projPerFeat signed columns drawn from its own PRNG. Patterns are
	// derived on first use and memoised in a table shared by every encoder
	// with this (dim, seed); see projTable.
	proj *projTable

	// idf optionally reweights word features by corpus rarity (see
	// TrainIDF); nil means uniform weights.
	idf *IDF
}

// New returns an encoder producing dim-dimensional embeddings. All encoders
// constructed with the same (dim, seed) are identical functions.
func New(dim int, seed uint64) *Encoder {
	if dim <= 0 {
		panic("embed: non-positive dimension")
	}
	return &Encoder{dim: dim, seed: seed, proj: projTableFor(dim, seed)}
}

// NewDefault returns the encoder used throughout the reproduction
// (384 dimensions, fixed seed) — the stand-in for PubMedBERT.
func NewDefault() *Encoder { return New(DefaultDim, 0x9e3779b9) }

// Dim returns the embedding dimensionality.
func (e *Encoder) Dim() int { return e.dim }

// Encode embeds text into a unit-norm float32 vector. Empty or
// feature-free text yields the zero vector.
func (e *Encoder) Encode(text string) []float32 {
	v := make([]float32, e.dim)
	e.EncodeInto(v, text)
	return v
}

// EncodeInto embeds text into dst (len must equal Dim), reusing the buffer.
func (e *Encoder) EncodeInto(dst []float32, text string) {
	if len(dst) != e.dim {
		panic("embed: EncodeInto dimension mismatch")
	}
	for i := range dst {
		dst[i] = 0
	}
	words := tokenizer.Words(text)
	if len(words) == 0 {
		return
	}
	// Accumulate in sorted word order: float addition is not associative,
	// so the order must not depend on the input order once weights are
	// not exactly representable (e.g. under IDF). Each run of equal words
	// in the sorted copy is one distinct word and its count.
	sorted := make([]string, len(words))
	copy(sorted, words)
	sort.Strings(sorted)
	for i := 0; i < len(sorted); {
		w := sorted[i]
		c := 1
		for i+c < len(sorted) && sorted[i+c] == w {
			c++
		}
		i += c
		// Term-frequency damping: repeated words contribute sub-linearly,
		// like the attention pooling of a real encoder.
		weight := float32(1)
		for k := 1; k < c && k < 4; k++ {
			weight += 1 / float32(k+1)
		}
		if e.idf != nil {
			weight *= e.idf.Weight(w)
		}
		e.addFeature(dst, rng.HashString(w), 2*weight)
		e.addNGrams(dst, w, weight*0.5)
	}
	// Bigram features capture local composition ("double-strand" vs
	// "single-strand" contexts): the hash of words[i]+"\x1f"+words[i+1].
	for i := 0; i+1 < len(words); i++ {
		h := rng.HashAdd(rng.HashAdd(rng.HashString(words[i]), "\x1f"), words[i+1])
		e.addFeature(dst, h, 1)
	}
	f16.Normalize(dst)
}

// addNGrams adds the character ngramSize-grams of "^"+w+"$" (the features
// of tokenizer.NGrams) without building them: each gram is the byte range
// [a, b) of the padded word between two rune boundaries, hashed in place.
func (e *Encoder) addNGrams(dst []float32, w string, weight float32) {
	end := len(w) + 2
	a, b := 0, 0
	for k := 0; k < ngramSize && b < end; k++ {
		b = nextRune(w, b)
	}
	// A padded word shorter than one gram is itself the only feature.
	for {
		e.addFeature(dst, hashPadded(w, a, b), weight)
		if b == end {
			return
		}
		a, b = nextRune(w, a), nextRune(w, b)
	}
}

// nextRune returns the offset in "^"+w+"$" of the rune after the one that
// starts at off.
func nextRune(w string, off int) int {
	if off == 0 || off > len(w) {
		return off + 1 // past '^' or '$'
	}
	_, size := utf8.DecodeRuneInString(w[off-1:])
	return off + size
}

// hashPadded returns the FNV-1a hash of ("^"+w+"$")[a:b] without building
// the padded string.
func hashPadded(w string, a, b int) uint64 {
	h := rng.HashOffset
	if a == 0 {
		h = rng.HashAdd(h, "^")
		a = 1
	}
	if b == len(w)+2 {
		return rng.HashAdd(rng.HashAdd(h, w[a-1:]), "$")
	}
	return rng.HashAdd(h, w[a-1:b-1])
}

// addFeature accumulates the sparse projection of the feature whose
// FNV-1a hash is h, in the pattern's draw order.
func (e *Encoder) addFeature(dst []float32, h uint64, weight float32) {
	for _, word := range e.proj.pattern((h ^ e.seed) % hashSpace) {
		for _, v := range [2]int32{int32(uint32(word)), int32(word >> 32)} {
			// v is idx+1, negated for a minus sign. m is 0 or -1, so
			// (v^m)-m is |v| and m|1 the sign: the same sign*weight
			// product as the derivation's draw, without a branch on a
			// sign that is a coin flip.
			m := v >> 31
			dst[(v^m)-m-1] += float32(m|1) * weight
		}
	}
}

// projWords is the number of 64-bit words one feature's pattern occupies:
// projPerFeat int32 entries, two per word.
const projWords = projPerFeat / 2

// projTable memoises the sparse projection patterns of one (dim, seed) for
// the life of the process. Feature f's pattern is projWords atomic words
// at words[f*projWords:]; each packs two entries, idx+1 negated for a minus
// sign, so a filled word is never zero and a zero word means "not derived
// yet". Filling is lazy and lock-free: a reader that finds a zero word
// derives the whole pattern from the feature's PRNG, exactly as an
// unmemoised encoder draws it, and stores it; racing fillers store the
// same values. The table is 8 MB of virtual memory (2^18 features × 32
// bytes), of which only the pages of features actually seen are touched.
type projTable struct {
	dim   int
	seed  uint64
	words []atomic.Uint64
}

var (
	projMu     sync.Mutex
	projTables = map[[2]uint64]*projTable{}
)

// projTableFor returns the process-wide table for (dim, seed), creating it
// on first use.
func projTableFor(dim int, seed uint64) *projTable {
	projMu.Lock()
	defer projMu.Unlock()
	key := [2]uint64{uint64(dim), seed}
	t := projTables[key]
	if t == nil {
		t = &projTable{dim: dim, seed: seed, words: make([]atomic.Uint64, hashSpace*projWords)}
		projTables[key] = t
	}
	return t
}

// pattern returns feature f's packed pattern, deriving it on first use.
func (t *projTable) pattern(f uint64) [projWords]uint64 {
	ws := t.words[f*projWords : (f+1)*projWords]
	var p [projWords]uint64
	for i := range p {
		if p[i] = ws[i].Load(); p[i] == 0 {
			p = derivePattern(t.dim, t.seed, f)
			for j := range p {
				ws[j].Store(p[j])
			}
			break
		}
	}
	return p
}

// derivePattern draws feature f's projPerFeat (index, sign) pairs from its
// own generator, so the projection matrix is implicit and immutable.
func derivePattern(dim int, seed, f uint64) [projWords]uint64 {
	g := rng.New(seed ^ (f * 0x9E3779B97F4A7C15))
	var p [projWords]uint64
	for k := 0; k < projPerFeat; k++ {
		v := int32(g.Intn(dim) + 1)
		if g.Bool(0.5) {
			v = -v
		}
		p[k/2] |= uint64(uint32(v)) << (32 * (k % 2))
	}
	return p
}

// WithIDF returns a copy of the encoder whose word features are weighted
// by the given IDF model. Encoders derived from the same (dim, seed) but
// different IDFs produce different — and incomparable — vector spaces;
// index and queries must use the same encoder.
func (e *Encoder) WithIDF(idf *IDF) *Encoder {
	out := *e
	out.idf = idf
	return &out
}

// IDF is an inverse-document-frequency model over word features: words
// appearing in most documents (the corpus's boilerplate — "the", "results",
// the filler sentences of method sections) are downweighted, sharpening
// retrieval on content-bearing terms. This mirrors what a contrastively
// trained encoder like PubMedBERT learns implicitly; here it is learned
// explicitly from document statistics, so it is available as a controlled
// ablation of embedder quality (see the retrieval ablation benches).
type IDF struct {
	weights  map[string]float32
	fallback float32
}

// TrainIDF fits IDF weights over the documents. Weight for word w is
// log(1 + N/df(w)), normalised so the corpus-mean weight is 1 (keeping
// magnitudes comparable to the unweighted encoder). Unseen words get the
// maximum (rarest) weight.
func TrainIDF(docs []string) *IDF {
	df := make(map[string]int)
	for _, d := range docs {
		seen := make(map[string]bool)
		for _, w := range tokenizer.Words(d) {
			if !seen[w] {
				seen[w] = true
				df[w]++
			}
		}
	}
	n := float64(len(docs))
	weights := make(map[string]float32, len(df))
	var sum float64
	var maxW float64
	for w, c := range df {
		v := math.Log(1 + n/float64(c))
		weights[w] = float32(v)
		sum += v
		if v > maxW {
			maxW = v
		}
	}
	if len(weights) > 0 {
		mean := float32(sum / float64(len(weights)))
		for w := range weights {
			weights[w] /= mean
		}
		maxW /= sum / float64(len(weights))
	}
	fb := float32(maxW)
	if fb <= 0 {
		fb = 1
	}
	return &IDF{weights: weights, fallback: fb}
}

// Weight returns the multiplier for a (normalised) word.
func (idf *IDF) Weight(word string) float32 {
	if w, ok := idf.weights[word]; ok {
		return w
	}
	return idf.fallback
}

// Vocab reports the number of distinct words the model covers.
func (idf *IDF) Vocab() int { return len(idf.weights) }

// EncodeBatch embeds each text sequentially. For large batches prefer Pool.
func (e *Encoder) EncodeBatch(texts []string) [][]float32 {
	out := make([][]float32, len(texts))
	for i, t := range texts {
		out[i] = e.Encode(t)
	}
	return out
}

// Pool is a parallel batch encoder. It fans texts out over a fixed worker
// set, preserving input order in the output — the embedding stage of the
// paper's pipeline in miniature.
type Pool struct {
	enc     *Encoder
	workers int
}

// NewPool returns a pool with the given parallelism; workers <= 0 selects
// GOMAXPROCS.
func NewPool(enc *Encoder, workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{enc: enc, workers: workers}
}

// EncodeAll embeds texts in parallel, returning vectors in input order.
func (p *Pool) EncodeAll(texts []string) [][]float32 {
	out := make([][]float32, len(texts))
	p.each(len(texts), func(i int) { out[i] = p.enc.Encode(texts[i]) })
	return out
}

// EncodeAllF16 embeds texts in parallel directly into half-precision
// storage vectors, the layout used by the vector store (FP16, as in the
// paper's 747 MB FAISS store). Each worker converts the vector it just
// encoded.
func (p *Pool) EncodeAllF16(texts []string) [][]uint16 {
	out := make([][]uint16, len(texts))
	p.each(len(texts), func(i int) { out[i] = f16.Encode(p.enc.Encode(texts[i])) })
	return out
}

// each runs fn(i) for every i in [0, n), on at most p.workers goroutines
// and never more than n: retrieval micro-batches are often 1-32 queries,
// and a fan-out of GOMAXPROCS goroutines per call would dominate the cost
// of embedding a single query.
func (p *Pool) each(n int, fn func(i int)) {
	workers := min(p.workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
