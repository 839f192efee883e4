package f16

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestRoundTripExactValues(t *testing.T) {
	// Values exactly representable in binary16 must round-trip exactly.
	exact := []float32{0, 1, -1, 0.5, 0.25, 2, 1024, -0.125, 65504, -65504, 0.000060975552}
	for _, v := range exact {
		got := ToFloat32(FromFloat32(v))
		if got != v {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestSpecialValues(t *testing.T) {
	inf := float32(math.Inf(1))
	if ToFloat32(FromFloat32(inf)) != inf {
		t.Error("+Inf did not survive")
	}
	ninf := float32(math.Inf(-1))
	if ToFloat32(FromFloat32(ninf)) != ninf {
		t.Error("-Inf did not survive")
	}
	nan := float32(math.NaN())
	if !math.IsNaN(float64(ToFloat32(FromFloat32(nan)))) {
		t.Error("NaN did not survive")
	}
	// Overflow beyond half range maps to Inf.
	if !math.IsInf(float64(ToFloat32(FromFloat32(1e20))), 1) {
		t.Error("1e20 did not overflow to +Inf")
	}
	if !math.IsInf(float64(ToFloat32(FromFloat32(-1e20))), -1) {
		t.Error("-1e20 did not overflow to -Inf")
	}
}

func TestSignedZero(t *testing.T) {
	pz := FromFloat32(0)
	nz := FromFloat32(float32(math.Copysign(0, -1)))
	if pz == nz {
		t.Error("signed zeros not distinguished in half encoding")
	}
	if ToFloat32(pz) != 0 || ToFloat32(nz) != 0 {
		t.Error("zeros decode nonzero")
	}
}

func TestSubnormals(t *testing.T) {
	// Smallest positive subnormal half = 2^-24.
	tiny := float32(math.Pow(2, -24))
	h := FromFloat32(tiny)
	if h == 0 {
		t.Fatal("2^-24 flushed to zero")
	}
	if got := ToFloat32(h); got != tiny {
		t.Errorf("subnormal round trip %v -> %v", tiny, got)
	}
	// Below half of the smallest subnormal flushes to zero.
	if FromFloat32(float32(math.Pow(2, -26)))&0x7FFF != 0 {
		t.Error("2^-26 did not flush to zero")
	}
}

func TestRelativeErrorBound(t *testing.T) {
	// Property: for normal-range values, half conversion keeps relative
	// error under 2^-11 (one ulp of the 10-bit mantissa with rounding).
	f := func(raw uint32) bool {
		v := float32(raw%100000)/100 - 500 // [-500, 500)
		if v == 0 {
			return true
		}
		got := ToFloat32(FromFloat32(v))
		rel := math.Abs(float64(got-v)) / math.Abs(float64(v))
		return rel <= math.Pow(2, -11)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMonotonicity(t *testing.T) {
	// Property: conversion preserves order for positive values.
	prev := float32(0)
	for v := float32(0.001); v < 60000; v *= 1.37 {
		got := ToFloat32(FromFloat32(v))
		if got < prev {
			t.Fatalf("monotonicity violated at %v: %v < %v", v, got, prev)
		}
		prev = got
	}
}

func TestEncodeDecode(t *testing.T) {
	in := []float32{0.1, -2.5, 3.75, 100}
	h := Encode(in)
	out := Decode(h)
	if len(out) != len(in) {
		t.Fatal("length mismatch")
	}
	for i := range in {
		if math.Abs(float64(out[i]-in[i])) > 0.01*math.Abs(float64(in[i]))+1e-4 {
			t.Errorf("index %d: %v -> %v", i, in[i], out[i])
		}
	}
}

func TestDecodeInto(t *testing.T) {
	h := Encode([]float32{1, 2, 3})
	dst := make([]float32, 3)
	DecodeInto(dst, h)
	if dst[0] != 1 || dst[1] != 2 || dst[2] != 3 {
		t.Fatalf("DecodeInto got %v", dst)
	}
}

func TestDecodeIntoPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	DecodeInto(make([]float32, 2), make([]uint16, 3))
}

func TestDotAgainstF32(t *testing.T) {
	r := rng.New(99)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(400)
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(r.Normal(0, 1))
			b[i] = float32(r.Normal(0, 1))
		}
		exact := DotF32(a, b)
		half := Dot(Encode(a), b)
		if math.Abs(float64(half-exact)) > 0.01*float64(n)+0.05 {
			t.Fatalf("n=%d: half dot %v vs exact %v", n, half, exact)
		}
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Dot(make([]uint16, 2), make([]float32, 3))
}

// sameBits compares float32s by bit pattern, treating every NaN as equal.
func sameBits(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// TestDot2MatchesDot pins Dot2 to Dot bit for bit. For each dimension the
// rows between them hold every one of the 65 536 half bit patterns (±0,
// subnormals, normals, ±Inf, NaN) in order, so every pattern meets every
// accumulator lane and the tail loop; each row is paired with its
// neighbour, its mirror and itself.
func TestDot2MatchesDot(t *testing.T) {
	r := rng.New(5)
	for _, dim := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 383, 384, 385} {
		n := (1<<16 + dim - 1) / dim
		codes := make([]uint16, n*dim)
		for i := range codes {
			codes[i] = uint16(i) // past 0xFFFF the last row wraps back to 0x0000
		}
		rows := make([][]uint16, n)
		for i := range rows {
			rows[i] = codes[i*dim : (i+1)*dim]
		}
		q := make([]float32, dim)
		for i := range q {
			q[i] = float32(r.Normal(0, 1))
		}
		for i, a := range rows {
			for _, b := range [][]uint16{rows[(i+1)%n], rows[n-1-i], a} {
				ga, gb := Dot2(a, b, q)
				wa, wb := Dot(a, q), Dot(b, q)
				if !sameBits(ga, wa) || !sameBits(gb, wb) {
					t.Fatalf("dim=%d row %d: Dot2 = (%x, %x), Dot = (%x, %x)", dim, i,
						math.Float32bits(ga), math.Float32bits(gb), math.Float32bits(wa), math.Float32bits(wb))
				}
			}
		}
	}
}

func TestDot2PanicsOnMismatch(t *testing.T) {
	for _, c := range []struct{ a, b int }{{2, 3}, {3, 2}, {2, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic for lengths a=%d b=%d q=3", c.a, c.b)
				}
			}()
			Dot2(make([]uint16, c.a), make([]uint16, c.b), make([]float32, 3))
		}()
	}
}

func TestNormalizeUnitNorm(t *testing.T) {
	v := []float32{3, 4}
	Normalize(v)
	if math.Abs(float64(Norm(v)-1)) > 1e-6 {
		t.Fatalf("norm after Normalize = %v", Norm(v))
	}
	if math.Abs(float64(v[0]-0.6)) > 1e-6 || math.Abs(float64(v[1]-0.8)) > 1e-6 {
		t.Fatalf("Normalize direction changed: %v", v)
	}
}

func TestNormalizeZeroVector(t *testing.T) {
	v := []float32{0, 0, 0}
	Normalize(v) // must not NaN
	for _, x := range v {
		if x != 0 {
			t.Fatal("zero vector mutated")
		}
	}
}

func TestCosine(t *testing.T) {
	a := []float32{1, 0}
	b := []float32{0, 1}
	if c := Cosine(a, b); math.Abs(float64(c)) > 1e-6 {
		t.Fatalf("orthogonal cosine %v", c)
	}
	if c := Cosine(a, a); math.Abs(float64(c-1)) > 1e-6 {
		t.Fatalf("self cosine %v", c)
	}
	if c := Cosine(a, []float32{0, 0}); c != 0 {
		t.Fatalf("zero-vector cosine %v", c)
	}
}

func TestL2Squared(t *testing.T) {
	h := Encode([]float32{1, 2})
	q := []float32{4, 6}
	got := L2Squared(h, q)
	if math.Abs(float64(got-25)) > 0.1 {
		t.Fatalf("L2Squared = %v, want 25", got)
	}
}

func TestBytesPerVector(t *testing.T) {
	if BytesPerVector(384) != 768 {
		t.Fatalf("BytesPerVector(384) = %d", BytesPerVector(384))
	}
}

// Property: top-1 neighbour under half-precision storage matches full
// precision for well-separated random vectors — the invariant retrieval
// relies on.
func TestHalfPrecisionPreservesTopNeighbor(t *testing.T) {
	r := rng.New(7)
	const dim, n = 64, 50
	vecs := make([][]float32, n)
	halves := make([][]uint16, n)
	for i := range vecs {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(r.Normal(0, 1))
		}
		Normalize(v)
		vecs[i] = v
		halves[i] = Encode(v)
	}
	for trial := 0; trial < 30; trial++ {
		q := make([]float32, dim)
		for j := range q {
			q[j] = float32(r.Normal(0, 1))
		}
		Normalize(q)
		bestExact, bestExactScore := -1, float32(math.Inf(-1))
		bestHalf, bestHalfScore := -1, float32(math.Inf(-1))
		for i := 0; i < n; i++ {
			if s := DotF32(vecs[i], q); s > bestExactScore {
				bestExact, bestExactScore = i, s
			}
			if s := Dot(halves[i], q); s > bestHalfScore {
				bestHalf, bestHalfScore = i, s
			}
		}
		if bestExact != bestHalf {
			// Allow ties within half-precision resolution.
			if math.Abs(float64(bestExactScore-bestHalfScore)) > 1e-3 {
				t.Fatalf("trial %d: half top-1 %d differs from exact %d (scores %v vs %v)",
					trial, bestHalf, bestExact, bestHalfScore, bestExactScore)
			}
		}
	}
}

func BenchmarkDotHalf384(b *testing.B) {
	r := rng.New(1)
	v := make([]float32, 384)
	q := make([]float32, 384)
	for i := range v {
		v[i] = float32(r.Normal(0, 1))
		q[i] = float32(r.Normal(0, 1))
	}
	h := Encode(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Dot(h, q)
	}
}

// BenchmarkDot2Half384 scores two rows per call; compare ns/op with twice
// BenchmarkDotHalf384 for what the paired add chains buy.
func BenchmarkDot2Half384(b *testing.B) {
	r := rng.New(1)
	v := make([]float32, 2*384)
	q := make([]float32, 384)
	for i := range v {
		v[i] = float32(r.Normal(0, 1))
	}
	for i := range q {
		q[i] = float32(r.Normal(0, 1))
	}
	h := Encode(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dot2Sink, _ = Dot2(h[:384], h[384:], q)
	}
}

var dot2Sink float32

func BenchmarkDotF32384(b *testing.B) {
	r := rng.New(1)
	v := make([]float32, 384)
	q := make([]float32, 384)
	for i := range v {
		v[i] = float32(r.Normal(0, 1))
		q[i] = float32(r.Normal(0, 1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = DotF32(v, q)
	}
}
