package embed

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unicode"

	"repro/internal/f16"
	"repro/internal/rng"
	"repro/internal/tokenizer"
)

func TestDeterministic(t *testing.T) {
	e1 := NewDefault()
	e2 := NewDefault()
	a := e1.Encode("ionizing radiation induces DNA double-strand breaks")
	b := e2.Encode("ionizing radiation induces DNA double-strand breaks")
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at dim %d", i)
		}
	}
}

func TestUnitNorm(t *testing.T) {
	e := NewDefault()
	v := e.Encode("tumor suppressor p53 activates apoptosis")
	if n := f16.Norm(v); math.Abs(float64(n-1)) > 1e-5 {
		t.Fatalf("norm = %v", n)
	}
}

func TestEmptyTextZeroVector(t *testing.T) {
	e := NewDefault()
	v := e.Encode("")
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty text produced nonzero vector")
		}
	}
}

func TestSimilarTextsCloser(t *testing.T) {
	e := NewDefault()
	base := e.Encode("radiation therapy damages tumor cell DNA causing apoptosis")
	near := e.Encode("radiation treatment damages tumor cell DNA and triggers apoptosis")
	far := e.Encode("the stock market closed higher on strong quarterly earnings")
	simNear := f16.Cosine(base, near)
	simFar := f16.Cosine(base, far)
	if simNear <= simFar {
		t.Fatalf("similar text cosine %v <= dissimilar %v", simNear, simFar)
	}
	if simNear < 0.5 {
		t.Fatalf("paraphrase similarity too low: %v", simNear)
	}
	if simFar > 0.4 {
		t.Fatalf("unrelated similarity too high: %v", simFar)
	}
}

func TestMorphologicalOverlap(t *testing.T) {
	// Character n-grams should make inflected forms resemble each other.
	e := NewDefault()
	a := e.Encode("irradiated cells")
	b := e.Encode("irradiation of cells")
	c := e.Encode("financial quarterly report")
	if f16.Cosine(a, b) <= f16.Cosine(a, c) {
		t.Fatalf("morphological variants not closer: %v vs %v",
			f16.Cosine(a, b), f16.Cosine(a, c))
	}
}

func TestWordOrderMatters(t *testing.T) {
	// Bigram features must distinguish compositions sharing a vocabulary.
	e := NewDefault()
	a := e.Encode("dose escalation before surgery improves control")
	b := e.Encode("surgery before dose escalation improves control")
	if sim := f16.Cosine(a, b); sim >= 0.9999 {
		t.Fatalf("word order ignored entirely: cosine %v", sim)
	}
}

func TestDimensions(t *testing.T) {
	for _, dim := range []int{16, 128, 384} {
		e := New(dim, 1)
		if got := len(e.Encode("test")); got != dim {
			t.Fatalf("dim %d produced %d", dim, got)
		}
		if e.Dim() != dim {
			t.Fatalf("Dim() = %d", e.Dim())
		}
	}
}

func TestSeedChangesEmbedding(t *testing.T) {
	a := New(128, 1).Encode("radiation biology")
	b := New(128, 2).Encode("radiation biology")
	if f16.Cosine(a, b) > 0.9 {
		t.Fatalf("different seeds produce near-identical embeddings: %v", f16.Cosine(a, b))
	}
}

func TestEncodeInto(t *testing.T) {
	e := New(64, 3)
	dst := make([]float32, 64)
	e.EncodeInto(dst, "alpha beta")
	want := e.Encode("alpha beta")
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatal("EncodeInto differs from Encode")
		}
	}
	// Buffer reuse must fully overwrite.
	e.EncodeInto(dst, "gamma delta")
	want2 := e.Encode("gamma delta")
	for i := range dst {
		if dst[i] != want2[i] {
			t.Fatal("EncodeInto buffer reuse leaked state")
		}
	}
}

func TestEncodeIntoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong buffer size")
		}
	}()
	New(64, 0).EncodeInto(make([]float32, 32), "x")
}

func TestTermFrequencyDamping(t *testing.T) {
	e := NewDefault()
	once := e.Encode("apoptosis regulation pathway")
	spam := e.Encode("apoptosis apoptosis apoptosis apoptosis apoptosis regulation pathway")
	if sim := f16.Cosine(once, spam); sim < 0.6 {
		t.Fatalf("repetition dominated embedding: cosine %v", sim)
	}
}

func TestPoolMatchesSequential(t *testing.T) {
	e := NewDefault()
	texts := make([]string, 37)
	for i := range texts {
		texts[i] = fmt.Sprintf("document %d about radiation dose fractionation topic %d", i, i%5)
	}
	seq := e.EncodeBatch(texts)
	par := NewPool(e, 4).EncodeAll(texts)
	for i := range texts {
		for j := range seq[i] {
			if seq[i][j] != par[i][j] {
				t.Fatalf("pool output differs at text %d dim %d", i, j)
			}
		}
	}
}

func TestPoolEmptyInput(t *testing.T) {
	out := NewPool(NewDefault(), 4).EncodeAll(nil)
	if len(out) != 0 {
		t.Fatal("empty input gave output")
	}
}

// The pool's FP16 rows equal each text's vector converted on its own, for
// a dimension the per-worker stack scratch holds and one it does not.
func TestPoolF16(t *testing.T) {
	texts := []string{"alpha", "beta gamma", "delta", ""}
	for _, e := range []*Encoder{NewDefault(), New(2*DefaultDim, 5)} {
		dim := e.Dim()
		codes := make([]uint16, len(texts)*dim)
		NewPool(e, 2).EncodeF16Into(codes, texts)
		for i, text := range texts {
			want := f16.Encode(e.Encode(text))
			for j, h := range codes[i*dim : (i+1)*dim] {
				if h != want[j] {
					t.Fatalf("f16 pool mismatch dim %d text %d component %d", dim, i, j)
				}
			}
		}
	}
}

func TestPoolDefaultWorkers(t *testing.T) {
	p := NewPool(NewDefault(), 0)
	if p.workers <= 0 {
		t.Fatal("default workers not positive")
	}
}

// Property: any text embeds to either zero (no features) or a unit vector.
func TestQuickNormInvariant(t *testing.T) {
	e := New(64, 9)
	f := func(s string) bool {
		v := e.Encode(s)
		n := float64(f16.Norm(v))
		return n == 0 || math.Abs(n-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: cosine self-similarity is 1 for non-empty embeddings.
func TestQuickSelfSimilarity(t *testing.T) {
	e := New(64, 10)
	f := func(a uint32) bool {
		text := fmt.Sprintf("token%d radiation token%d", a%50, a%13)
		v := e.Encode(text)
		return math.Abs(float64(f16.Cosine(v, v))-1) < 1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// encodeReference is the encoder as it was before projection patterns were
// memoised and features hashed in place, kept verbatim as the bit-parity
// oracle: words from Tokenize, a counts map with sorted keys, n-gram and
// bigram strings hashed through hash/fnv, and a PRNG re-seeded for every
// feature occurrence.
func encodeReference(dim int, seed uint64, idf *IDF, text string) []float32 {
	dst := make([]float32, dim)
	var words []string
	for _, t := range tokenizer.Tokenize(text) {
		if len(t.Norm) > 0 && (unicode.IsLetter(rune(t.Norm[0])) || unicode.IsDigit(rune(t.Norm[0]))) {
			words = append(words, t.Norm)
		}
	}
	if len(words) == 0 {
		return dst
	}
	addFeature := func(feat string, weight float32) {
		fh := fnv.New64a()
		fh.Write([]byte(feat))
		h := fh.Sum64() ^ seed
		f := h % hashSpace
		g := rng.New(seed ^ (f * 0x9E3779B97F4A7C15))
		for k := 0; k < projPerFeat; k++ {
			idx := g.Intn(dim)
			sign := float32(1)
			if g.Bool(0.5) {
				sign = -1
			}
			dst[idx] += sign * weight
		}
	}
	counts := make(map[string]int, len(words))
	for _, w := range words {
		counts[w]++
	}
	distinct := make([]string, 0, len(counts))
	for w := range counts {
		distinct = append(distinct, w)
	}
	sort.Strings(distinct)
	for _, w := range distinct {
		c := counts[w]
		weight := float32(1)
		for k := 1; k < c && k < 4; k++ {
			weight += 1 / float32(k+1)
		}
		if idf != nil {
			weight *= idf.Weight(w)
		}
		addFeature(w, 2*weight)
		for _, g := range tokenizer.NGrams(w, ngramSize) {
			addFeature(g, weight*0.5)
		}
	}
	for i := 0; i+1 < len(words); i++ {
		addFeature(words[i]+"\x1f"+words[i+1], 1)
	}
	f16.Normalize(dst)
	return dst
}

// parityTexts is the table the parity test runs and FuzzEncodeParity
// starts from: empty and punctuation-only text, one-rune words, words over
// 64 runes, non-ASCII words, uppercase, the intra-word joiners, repeated
// words and invalid UTF-8.
var parityTexts = []string{
	"",
	"... ,;: ()!? -- ''",
	"a b c x y z 7",
	strings.Repeat("supercalifragilistic", 4) + " " + strings.Repeat("ж", 70),
	"naïve café é ΑΒΓ γ-H2AX 细胞凋亡 放射治疗",
	"IONIZING Radiation INDUCES DNA Double-Strand BREAKS",
	"non-small cell dose of 1.8 Gy in p53's pathway",
	"apoptosis apoptosis apoptosis apoptosis apoptosis regulation",
	"Ionizing radiation induces double-strand breaks that activate the ATM kinase pathway and p53-mediated apoptosis in tumor cells.",
	"dose — 2 Gy © 2024, bad\xffutf8 and שלום",
}

// parityIDF is trained on a corpus that leaves some parity words unseen, so
// both the trained and the fallback weight are exercised.
func parityIDF() *IDF { return TrainIDF(append(idfCorpus(), parityTexts[5:8]...)) }

func checkParity(t *testing.T, e *Encoder, idf *IDF, text string) {
	t.Helper()
	got := e.Encode(text)
	want := encodeReference(e.dim, e.seed, idf, text)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("dim %d seed %d idf %v text %q: component %d = %v, reference %v",
				e.dim, e.seed, idf != nil, text, i, got[i], want[i])
		}
	}
}

func TestEncodeMatchesReference(t *testing.T) {
	idf := parityIDF()
	for _, dim := range []int{64, 384} {
		for _, seed := range []uint64{0, 1} {
			plain := New(dim, seed)
			for _, text := range parityTexts {
				checkParity(t, plain, nil, text)
				checkParity(t, plain.WithIDF(idf), idf, text)
			}
		}
	}
	// The production encoder, on its own seed.
	for _, text := range parityTexts {
		checkParity(t, NewDefault(), nil, text)
	}
}

func FuzzEncodeParity(f *testing.F) {
	for _, text := range parityTexts {
		f.Add(text)
	}
	idf := parityIDF()
	encoders := []*Encoder{New(64, 0), New(64, 1), New(384, 0), New(384, 1)}
	f.Fuzz(func(t *testing.T, text string) {
		for _, e := range encoders {
			checkParity(t, e, nil, text)
			checkParity(t, e.WithIDF(idf), idf, text)
		}
	})
}

// Eight goroutines race to fill a fresh (dim, seed) table; every vector
// must still equal the reference bit for bit.
func TestEncodeConcurrentFill(t *testing.T) {
	const dim, seed = 96, 0xfeed
	texts := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		texts = append(texts, fmt.Sprintf("%s %d", parityTexts[8+i%2], i))
	}
	var wg sync.WaitGroup
	got := make([][][]float32, 8)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := New(dim, seed)
			for _, text := range texts {
				got[g] = append(got[g], e.Encode(text))
			}
		}()
	}
	wg.Wait()
	for i, text := range texts {
		want := encodeReference(dim, seed, nil, text)
		for g := range got {
			for j := range want {
				if math.Float32bits(got[g][i][j]) != math.Float32bits(want[j]) {
					t.Fatalf("goroutine %d text %d component %d = %v, reference %v", g, i, j, got[g][i][j], want[j])
				}
			}
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	e := NewDefault()
	text := "Ionizing radiation induces double-strand breaks that activate the ATM kinase pathway and p53-mediated apoptosis in tumor cells."
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = e.Encode(text)
	}
}

func BenchmarkPoolEncode1000(b *testing.B) {
	e := NewDefault()
	texts := make([]string, 1000)
	for i := range texts {
		texts[i] = fmt.Sprintf("chunk %d of radiation biology text with dose %d Gy and pathway %d", i, i%30, i%7)
	}
	p := NewPool(e, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.EncodeAll(texts)
	}
}

// collidingWords returns two distinct words that share a memo slot.
func collidingWords(t testing.TB) (string, string) {
	t.Helper()
	bySlot := map[uint64]string{}
	for i := 0; i < 100*memoSlots; i++ {
		w := fmt.Sprintf("dose%dgy", i)
		s := memoSlot(rng.HashString(w))
		if prev, ok := bySlot[s]; ok {
			return prev, w
		}
		bySlot[s] = w
	}
	t.Fatal("no two words share a memo slot")
	return "", ""
}

// Two words that share a slot replace each other's entry on every other
// encode; every vector must still equal the reference, with and without
// IDF weights (which make the accumulation order visible in the bits).
func TestWordMemoCollisions(t *testing.T) {
	a, b := collidingWords(t)
	const dim, seed = 80, 0xc0111de
	idf := parityIDF()
	plain := New(dim, seed)
	texts := []string{
		a, b, a, b,
		a + " apoptosis " + a, b + " apoptosis " + b + " " + b,
		a + " " + b, b + " " + a, a + " " + b + " " + a + " apoptosis",
	}
	for round := 0; round < 3; round++ {
		for _, text := range texts {
			checkParity(t, plain, nil, text)
			checkParity(t, plain.WithIDF(idf), idf, text)
		}
	}
	m := plain.proj.memo[memoSlot(rng.HashString(b))].Load()
	if m == nil || (m.w != a && m.w != b) {
		t.Fatalf("slot of %q and %q holds %v", a, b, m)
	}
}

// Goroutines encode colliding and over-long words while the shared slots
// are replaced under them; every vector must equal the reference bit for
// bit (and the race detector sees every slot access).
func TestWordMemoConcurrentReplace(t *testing.T) {
	a, b := collidingWords(t)
	long := strings.Repeat("radiosensitization", 2) // 36 bytes: table path
	const dim, seed = 72, 0x5107
	idf := parityIDF()
	texts := []string{
		a + " " + long, b + " " + long + " " + a,
		long + " " + b + " " + b, a + " " + b + " apoptosis",
	}
	want := make(map[bool][][]float32)
	for _, withIDF := range []bool{false, true} {
		for _, text := range texts {
			var w *IDF
			if withIDF {
				w = idf
			}
			want[withIDF] = append(want[withIDF], encodeReference(dim, seed, w, text))
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := New(dim, seed)
			withIDF := g%2 == 1
			if withIDF {
				e = e.WithIDF(idf)
			}
			for it := 0; it < 200; it++ {
				i := (it + g) % len(texts)
				got := e.Encode(texts[i])
				for j, x := range want[withIDF][i] {
					if math.Float32bits(got[j]) != math.Float32bits(x) {
						errs <- fmt.Sprintf("goroutine %d text %d component %d = %v, reference %v", g, i, j, got[j], x)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
}

// The memo's worst-case memory is a constant: memoSlots slots, each
// holding one word of at most memoMaxWord bytes with its 1+runes patterns;
// a longer word takes the table path and is never stored. docs (doc.go)
// state the resulting bound.
func TestWordMemoBound(t *testing.T) {
	if memoSlots != 4096 || memoMaxWord != 32 {
		t.Fatalf("memo is %d slots × %d-byte words; doc.go states its bound for 4096 × 32", memoSlots, memoMaxWord)
	}
	const dim, seed = 48, 0xb0d
	e := New(dim, seed)
	longest := strings.Repeat("x", memoMaxWord)
	over := strings.Repeat("y", memoMaxWord+1)
	for _, w := range []string{longest, over} {
		checkParity(t, e, nil, w+" dose")
	}
	m := e.proj.memo[memoSlot(rng.HashString(longest))].Load()
	if m == nil || m.w != longest {
		t.Fatalf("a %d-byte word was not memoised", len(longest))
	}
	if want := projWords * (1 + memoMaxWord); len(m.pats) != want || cap(m.pats) != want {
		t.Fatalf("longest word holds %d (cap %d) pattern words, want %d", len(m.pats), cap(m.pats), want)
	}
	if m := e.proj.memo[memoSlot(rng.HashString(over))].Load(); m != nil && m.w == over {
		t.Fatalf("a %d-byte word was memoised", len(over))
	}
	if e.proj.wordPatterns(over, rng.HashString(over)) != nil {
		t.Fatal("an over-long word left the table path")
	}
}
