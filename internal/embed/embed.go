package embed

import (
	"iter"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"repro/internal/f16"
	"repro/internal/pipeline"
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
		// The memo replays the word's patterns with the same two scales
		// the table path passes, in the same order.
		h := rng.HashString(w)
		if pats := e.proj.wordPatterns(w, h); pats != nil {
			addPacked(dst, pats[:projWords], 2*weight)
			addPacked(dst, pats[projWords:], weight*0.5)
		} else {
			e.addFeature(dst, h, 2*weight)
			e.addNGrams(dst, w, weight*0.5)
		}
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
// of tokenizer.NGrams) in order.
func (e *Encoder) addNGrams(dst []float32, w string, weight float32) {
	for h := range nGramHashes(w) {
		e.addFeature(dst, h, weight)
	}
}

// nGramHashes yields the hashes of the character ngramSize-grams of
// "^"+w+"$" without building them: each gram is the byte range [a, b) of
// the padded word between two rune boundaries, hashed in place.
func nGramHashes(w string) iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		end := len(w) + 2
		a, b := 0, 0
		for k := 0; k < ngramSize && b < end; k++ {
			b = nextRune(w, b)
		}
		// A padded word shorter than one gram is itself the only feature.
		for yield(hashPadded(w, a, b)) && b != end {
			a, b = nextRune(w, a), nextRune(w, b)
		}
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
	p := e.proj.pattern((h ^ e.seed) % hashSpace)
	addPacked(dst, p[:], weight)
}

// addPacked accumulates packed pattern entries, in order, each scaled by
// weight.
func addPacked(dst []float32, pats []uint64, weight float32) {
	for _, word := range pats {
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
	// memo is the word memo (wordPatterns): slot s holds the entry of the
	// word last derived among those whose memoSlot is s, or nil.
	memo [memoSlots]atomic.Pointer[wordEntry]
}

// The word memo's bound: memoSlots direct-mapped slots, each holding at
// most one word of at most memoMaxWord bytes. A longer word is not
// memoised; it takes the table path.
const (
	memoBits    = 12
	memoSlots   = 1 << memoBits
	memoMaxWord = 32
)

// wordEntry is one memoised word: its packed pattern entries, projWords
// per feature, the word feature's first and then each n-gram's in
// nGramHashes order. Entries are immutable once stored.
type wordEntry struct {
	w    string // a copy, so an entry pins none of the encoded text
	pats []uint64
}

// memoSlot maps a word's FNV-1a hash to its memo slot. The high half is
// folded into the low one: FNV-1a's top bits barely move for a short word
// (the prime's high bit is 2^40), and on a generated corpus's vocabulary
// they alone collide two to five times as often as a uniform hash.
func memoSlot(h uint64) uint64 { return (h ^ h>>32) % memoSlots }

// wordPatterns returns the packed pattern entries of word w, whose FNV-1a
// hash is h, from the memo, deriving and storing them on a miss; a word
// over memoMaxWord bytes returns nil. A miss replaces the slot's entry:
// the store is one atomic pointer, so a reader sees the old entry or the
// new one, and checks its word before using it.
func (t *projTable) wordPatterns(w string, h uint64) []uint64 {
	if len(w) > memoMaxWord {
		return nil
	}
	slot := &t.memo[memoSlot(h)]
	if m := slot.Load(); m != nil && m.w == w {
		return m.pats
	}
	p := t.pattern((h ^ t.seed) % hashSpace)
	pats := append(make([]uint64, 0, projWords*(1+utf8.RuneCountInString(w))), p[:]...)
	for g := range nGramHashes(w) {
		p = t.pattern((g ^ t.seed) % hashSpace)
		pats = append(pats, p[:]...)
	}
	slot.Store(&wordEntry{w: strings.Clone(w), pats: pats})
	return pats
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

// Pool is a parallel batch encoder. It fans texts out over at most workers
// goroutines through pipeline.For (inline for a single text or worker),
// preserving input order in the output — the embedding stage of the
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
	pipeline.For(len(texts), p.workers, func(i int) { out[i] = p.enc.Encode(texts[i]) })
	return out
}

// EncodeF16Into embeds texts in parallel directly into half-precision
// storage, the layout used by the vector store (FP16, as in the paper's
// 747 MB FAISS store): one contiguous code block, text i at
// codes[i*Dim:(i+1)*Dim] (len(codes) must be len(texts)·Dim). Each worker
// encodes into a scratch vector and converts it straight into its row, so
// no per-text vector outlives the call.
func (p *Pool) EncodeF16Into(codes []uint16, texts []string) {
	dim := p.enc.dim
	if len(codes) != len(texts)*dim {
		panic("embed: EncodeF16Into block size mismatch")
	}
	pipeline.For(len(texts), p.workers, func(i int) {
		var stack [DefaultDim]float32
		v := stack[:]
		if dim > len(stack) {
			v = make([]float32, dim)
		}
		v = v[:dim]
		p.enc.EncodeInto(v, texts[i])
		f16.EncodeInto(codes[i*dim:(i+1)*dim], v)
	})
}
