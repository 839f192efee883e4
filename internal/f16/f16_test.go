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

// dotRowsQuery is the query the DotRows parity checks score against:
// normal draws, and for every third dimension also ±0, a float32
// subnormal and a value large enough to overflow the products to ±Inf.
func dotRowsQuery(r *rng.Source, dim int) []float32 {
	specials := []float32{0, float32(math.Copysign(0, -1)), 1e-40, 3e38}
	q := make([]float32, dim)
	for i := range q {
		q[i] = float32(r.Normal(0, 1))
		if dim%3 == 0 && i%5 == 4 {
			q[i] = specials[i/5%len(specials)]
		}
	}
	return q
}

// checkDotRows scores rows through DotRows and fails unless every score is
// Dot's bit for bit.
func checkDotRows(t testing.TB, rows [][]uint16, q []float32) {
	t.Helper()
	var out [MaxDotRows]float32
	DotRows(out[:], rows, q)
	for i, r := range rows {
		if want := Dot(r, q); !sameBits(out[i], want) {
			t.Fatalf("dim=%d, %d rows: row %d scored %x, Dot %x", len(q), len(rows), i,
				math.Float32bits(out[i]), math.Float32bits(want))
		}
	}
}

// TestDotRowsMatchesDot pins DotRows to Dot bit for bit. For each
// dimension 1–777 the rows hold every one of the 65 536 half bit patterns
// (±0, subnormals, normals, ±Inf, NaN) in order, so every pattern meets
// every accumulator lane and the tail; the rows are scored in groups whose
// sizes cycle through 1–8, so every row count and kernel slot is used.
func TestDotRowsMatchesDot(t *testing.T) {
	r := rng.New(5)
	for dim := 1; dim <= 777; dim++ {
		n := (1<<16 + dim - 1) / dim
		codes := make([]uint16, n*dim)
		for i := range codes {
			codes[i] = uint16(i) // past 0xFFFF the last row wraps back to 0x0000
		}
		q := dotRowsQuery(r, dim)
		var rows [MaxDotRows][]uint16
		for i, g := 0, 1; i < n; i, g = i+g, g%MaxDotRows+1 {
			g := min(g, n-i)
			for j := range g {
				rows[j] = codes[(i+j)*dim : (i+j+1)*dim]
			}
			checkDotRows(t, rows[:g], q)
		}
	}
}

// TestDotRowsUnaligned scores rows that start at odd offsets inside one
// shared block, so no row start is 8-byte aligned, and rows that overlap.
func TestDotRowsUnaligned(t *testing.T) {
	r := rng.New(9)
	for _, dim := range []int{4, 5, 8, 13, 384, 385} {
		block := make([]uint16, 1+MaxDotRows*(dim+3))
		for i := range block {
			block[i] = uint16(r.Uint64())
		}
		q := dotRowsQuery(r, dim)
		for _, stride := range []int{dim + 1, dim + 3, 1} {
			var rows [MaxDotRows][]uint16
			for j := range rows {
				off := 1 + j*stride
				rows[j] = block[off : off+dim]
			}
			for g := 1; g <= MaxDotRows; g++ {
				checkDotRows(t, rows[:g], q)
			}
		}
	}
}

func TestDotRowsPanicsOnMismatch(t *testing.T) {
	q := make([]float32, 3)
	for name, call := range map[string]func(){
		"short row":   func() { DotRows(make([]float32, 2), [][]uint16{make([]uint16, 3), make([]uint16, 2)}, q) },
		"long row":    func() { DotRows(make([]float32, 1), [][]uint16{make([]uint16, 5)}, make([]float32, 4)) },
		"short out":   func() { DotRows(make([]float32, 1), [][]uint16{make([]uint16, 3), make([]uint16, 3)}, q) },
		"nine rows":   func() { DotRows(make([]float32, 9), make([][]uint16, 9), make([]float32, 0)) },
		"nil row, q4": func() { DotRows(make([]float32, 1), [][]uint16{nil}, make([]float32, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzDotRowsMatchesDot widens TestDotRowsMatchesDot: codes from the
// fuzzer's bytes fill one shared block, rows start at a fuzzed offset and
// stride, and every score must equal Dot's bit for bit.
func FuzzDotRowsMatchesDot(f *testing.F) {
	specials := []byte{0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0xff, 0x03, 0x00, 0x7c, 0x00, 0xfc, 0x01, 0x7e, 0xff, 0xff}
	for _, c := range []struct {
		dim, rows, offset, stride int
	}{{1, 1, 0, 1}, {3, 8, 1, 3}, {4, 8, 0, 4}, {7, 5, 1, 8}, {384, 8, 0, 384}, {385, 2, 3, 386}, {777, 8, 1, 777}} {
		f.Add(specials, uint16(c.dim), uint8(c.rows), uint8(c.offset), uint16(c.stride), uint64(c.dim))
	}
	f.Fuzz(func(t *testing.T, codes []byte, dim uint16, nrows, offset uint8, stride uint16, seed uint64) {
		d, g := 1+int(dim)%777, 1+int(nrows)%MaxDotRows
		off, step := int(offset)%8, 1+int(stride)%(2*d)
		block := make([]uint16, off+(g-1)*step+d)
		for i := range block {
			if len(codes) >= 2 {
				k := 2 * i % (len(codes) &^ 1)
				block[i] = uint16(codes[k]) | uint16(codes[k+1])<<8
			} else {
				block[i] = uint16(i * 0x9e37)
			}
		}
		rows := make([][]uint16, g)
		for j := range rows {
			rows[j] = block[off+j*step : off+j*step+d]
		}
		checkDotRows(t, rows, dotRowsQuery(rng.New(seed), d))
	})
}

// TestDotI8Rows checks DotI8Rows against the definitional integer sum for
// dims 1–100 and 384, row counts 0–9 (the four-row groups and the single-row
// remainder) and extreme codes (±127, -128), with rows read at odd offsets.
func TestDotI8Rows(t *testing.T) {
	r := rng.New(11)
	for _, d := range append(seqInts(1, 100), 384, 385) {
		q := make([]int16, d)
		for j := range q {
			q[j] = int16(int8(r.Uint64()))
			if j%7 == 3 {
				q[j] = -128
			}
		}
		for n := 0; n <= 9; n++ {
			block := make([]int8, 1+n*d)
			for i := range block {
				block[i] = int8(r.Uint64())
				if i%11 == 5 {
					block[i] = [...]int8{127, -127, -128}[i%3]
				}
			}
			rows := block[1:]
			out := make([]int32, n)
			DotI8Rows(out, rows, q)
			for i := range out {
				var want int32
				for j := range q {
					want += int32(rows[i*d+j]) * int32(q[j])
				}
				if out[i] != want {
					t.Fatalf("d=%d n=%d row %d: got %d, want %d", d, n, i, out[i], want)
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a short row block")
		}
	}()
	DotI8Rows(make([]int32, 2), make([]int8, 7), make([]int16, 4))
}

func seqInts(lo, hi int) []int {
	s := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		s = append(s, i)
	}
	return s
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

// BenchmarkDotRowsHalf384 scores MaxDotRows rows per call and reports
// ns/row; compare with BenchmarkDotHalf384's ns/op for what one pass over
// eight rows buys.
func BenchmarkDotRowsHalf384(b *testing.B) {
	r := rng.New(1)
	v := make([]float32, MaxDotRows*384)
	q := make([]float32, 384)
	for i := range v {
		v[i] = float32(r.Normal(0, 1))
	}
	for i := range q {
		q[i] = float32(r.Normal(0, 1))
	}
	h := Encode(v)
	rows := make([][]uint16, MaxDotRows)
	for j := range rows {
		rows[j] = h[j*384 : (j+1)*384]
	}
	out := make([]float32, MaxDotRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DotRows(out, rows, q)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/MaxDotRows, "ns/row")
}

// BenchmarkDotI8Rows384 scores a 64-row tile of int8 codes per call, the
// shape of vecstore's first pass, and reports ns/row; compare with
// BenchmarkDotRowsHalf384 for what the int8 first pass costs per row
// against the FP16 score.
func BenchmarkDotI8Rows384(b *testing.B) {
	const rows = 64
	r := rng.New(1)
	codes := make([]int8, rows*384)
	for i := range codes {
		codes[i] = int8(r.Uint64())
	}
	q := make([]int16, 384)
	for i := range q {
		q[i] = int16(int8(r.Uint64()))
	}
	out := make([]int32, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DotI8Rows(out, codes, q)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
}

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
