package rng

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 99 {
		t.Fatalf("zero seed produced only %d distinct values of 100", len(seen))
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("alpha")
	c2 := parent.Split("beta")
	c1Again := parent.Split("alpha")
	if c1.Uint64() != c1Again.Uint64() {
		t.Fatal("Split not deterministic for same name")
	}
	if c1.s == c2.s {
		t.Fatal("different names produced identical child state")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	p1, p2 := New(9), New(9)
	_ = p1.Split("x")
	_ = p1.Split("y")
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("Split advanced parent state")
	}
}

func TestSplitN(t *testing.T) {
	p := New(5)
	a := p.SplitN("item", 0)
	b := p.SplitN("item", 1)
	if a.Uint64() == b.Uint64() {
		t.Fatal("SplitN(0) and SplitN(1) collide")
	}
	c := p.SplitN("item", 0)
	a2 := New(5).SplitN("item", 0)
	if c.Uint64() != a2.Uint64() {
		t.Fatal("SplitN not reproducible")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(4)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(7) bucket %d count %d far from uniform 10000", i, c)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(8)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		x := r.Normal(2, 3)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-2) > 0.05 {
		t.Fatalf("Normal mean %v, want ~2", mean)
	}
	if math.Abs(variance-9) > 0.3 {
		t.Fatalf("Normal variance %v, want ~9", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestCategorical(t *testing.T) {
	r := New(29)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[r.Categorical(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight bucket sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("categorical ratio %v, want ~3", ratio)
	}
}

func TestCategoricalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-sum weights did not panic")
		}
	}()
	New(1).Categorical([]float64{0, 0})
}

func TestSampleKDistinct(t *testing.T) {
	r := New(31)
	for trial := 0; trial < 100; trial++ {
		s := r.SampleK(20, 5)
		if len(s) != 5 {
			t.Fatalf("SampleK returned %d items", len(s))
		}
		seen := map[int]bool{}
		for _, v := range s {
			if v < 0 || v >= 20 || seen[v] {
				t.Fatalf("SampleK invalid sample %v", s)
			}
			seen[v] = true
		}
	}
}

func TestSampleKAll(t *testing.T) {
	r := New(37)
	s := r.SampleK(4, 10)
	if len(s) != 4 {
		t.Fatalf("SampleK(4,10) returned %d items", len(s))
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(41)
	z := NewZipf(100, 1.1)
	counts := make([]int, 100)
	for i := 0; i < 100000; i++ {
		counts[z.Sample(r)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	if counts[0] < 5*counts[10] {
		t.Fatalf("Zipf head too light: rank0=%d rank10=%d", counts[0], counts[10])
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	r := New(43)
	z := NewZipf(10, 0)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Sample(r)]++
	}
	for i, c := range counts {
		if c < 8500 || c > 11500 {
			t.Fatalf("Zipf(s=0) bucket %d = %d, want ~10000", i, c)
		}
	}
}

func TestHashStringStable(t *testing.T) {
	if HashString("chunk-0001") != HashString("chunk-0001") {
		t.Fatal("HashString unstable")
	}
	if HashString("a") == HashString("b") {
		t.Fatal("trivial hash collision")
	}
}

func TestHashStringsSeparatorMatters(t *testing.T) {
	if HashStrings("ab", "c") == HashStrings("a", "bc") {
		t.Fatal("HashStrings concatenation ambiguity")
	}
}

// hashCases cover the empty string, ASCII, multi-byte UTF-8, invalid UTF-8
// and the 0x1f separator byte HashStrings appends.
var hashCases = []string{"", "a", "chunk-0001", "naïve β-decay 细胞", "bad\xffutf8", "a\x1fb", "\x1f", "difficulty|q-0123456789abcdef"}

func TestHashStringMatchesStdlibFNV(t *testing.T) {
	for _, s := range hashCases {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := HashString(s), h.Sum64(); got != want {
			t.Errorf("HashString(%q) = %x, hash/fnv gives %x", s, got, want)
		}
	}
	for i := range hashCases {
		parts := hashCases[:i]
		h := fnv.New64a()
		for _, p := range parts {
			h.Write([]byte(p))
			h.Write([]byte{0x1f})
		}
		if got, want := HashStrings(parts...), h.Sum64(); got != want {
			t.Errorf("HashStrings(%q) = %x, hash/fnv gives %x", parts, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = HashStrings("doc", "3", "text") }); n != 0 {
		t.Errorf("HashStrings allocates %v times per call", n)
	}
}

// Split and SplitN key a child on FNV-1a over the parent state as
// little-endian bytes (plus the index for SplitN), then the name.
func TestSplitMatchesStdlibFNV(t *testing.T) {
	for _, name := range hashCases {
		r := New(77)
		var buf [40]byte
		for i, x := range r.s {
			binary.LittleEndian.PutUint64(buf[8*i:], x)
		}
		binary.LittleEndian.PutUint64(buf[32:], 5)
		h := fnv.New64a()
		h.Write(buf[:32])
		h.Write([]byte(name))
		if got, want := r.Split(name).Uint64(), New(h.Sum64()).Uint64(); got != want {
			t.Errorf("Split(%q) stream moved", name)
		}
		h = fnv.New64a()
		h.Write(buf[:])
		h.Write([]byte(name))
		if got, want := r.SplitN(name, 5).Uint64(), New(h.Sum64()).Uint64(); got != want {
			t.Errorf("SplitN(%q, 5) stream moved", name)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(47)
	hits := 0
	for i := 0; i < 100000; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	p := float64(hits) / 100000
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) rate %v", p)
	}
}

// Property: Intn output is always within bounds for arbitrary seeds and n.
func TestQuickIntnBounds(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: same seed ⇒ identical Float64 stream prefix.
func TestQuickDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := New(seed), New(seed)
		for i := 0; i < 20; i++ {
			if a.Float64() != b.Float64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal(0, 1)
	}
}
