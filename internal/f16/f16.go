// Package f16 implements IEEE 754 binary16 (half-precision) conversion and
// half-precision vector math.
//
// The paper stores its 173,318 PubMedBERT chunk embeddings as FP16 (747 MB
// total) inside FAISS. This package provides the same storage layout for the
// vector store in internal/vecstore: vectors are held as []uint16 and
// converted on the fly during similarity computation, halving memory
// relative to float32 at a small accuracy cost that is irrelevant for top-k
// retrieval (verified by property tests).
package f16

import "math"

// FromFloat32 converts a float32 to its nearest binary16 representation
// (round-to-nearest-even), with overflow mapping to ±Inf and underflow
// flushing through subnormals to zero.
func FromFloat32(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xFF) - 127 + 15
	man := bits & 0x7FFFFF

	switch {
	case exp >= 0x1F:
		// Overflow, infinity, or NaN.
		if int32(bits>>23&0xFF) == 0xFF {
			if man != 0 {
				return sign | 0x7E00 // NaN (quiet)
			}
			return sign | 0x7C00 // Inf
		}
		return sign | 0x7C00
	case exp <= 0:
		// Subnormal half or zero.
		if exp < -10 {
			return sign
		}
		man |= 0x800000
		shift := uint32(14 - exp)
		half := uint16(man >> shift)
		// Round to nearest even.
		rem := man & ((1 << shift) - 1)
		mid := uint32(1) << (shift - 1)
		if rem > mid || (rem == mid && half&1 == 1) {
			half++
		}
		return sign | half
	default:
		half := sign | uint16(exp)<<10 | uint16(man>>13)
		rem := man & 0x1FFF
		if rem > 0x1000 || (rem == 0x1000 && half&1 == 1) {
			half++
		}
		return half
	}
}

// lut16to32 is the exhaustive binary16→float32 conversion table (256 KiB,
// L2-resident). lut16to32[h] == toFloat32Compute(h) bit-for-bit for every h,
// so table decode is exact; it turns the branchy widening conversion on the
// vector-scan hot path into a single load. Built once at package load.
var lut16to32 [1 << 16]float32

func init() {
	for i := range lut16to32 {
		lut16to32[i] = toFloat32Compute(uint16(i))
	}
}

// ToFloat32 converts a binary16 value to float32 exactly (every half value
// is representable in single precision).
func ToFloat32(h uint16) float32 { return lut16to32[h] }

// toFloat32Compute is the definitional bit-manipulation conversion used to
// build the lookup table (and to document the semantics).
func toFloat32Compute(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	man := uint32(h & 0x3FF)

	switch exp {
	case 0:
		if man == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize.
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		man &= 0x3FF
		return math.Float32frombits(sign | e<<23 | man<<13)
	case 0x1F:
		if man == 0 {
			return math.Float32frombits(sign | 0x7F800000)
		}
		return math.Float32frombits(sign | 0x7FC00000 | man<<13)
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | man<<13)
	}
}

// Encode converts a float32 slice into a freshly allocated half slice.
func Encode(v []float32) []uint16 {
	out := make([]uint16, len(v))
	for i, f := range v {
		out[i] = FromFloat32(f)
	}
	return out
}

// AppendEncoded appends the binary16 encoding of v to dst and returns the
// extended slice. It is the allocation-free building block for contiguous
// code storage in internal/vecstore (one []uint16 holding many rows).
func AppendEncoded(dst []uint16, v []float32) []uint16 {
	for _, f := range v {
		dst = append(dst, FromFloat32(f))
	}
	return dst
}

// Decode converts a half slice into a freshly allocated float32 slice.
func Decode(h []uint16) []float32 {
	out := make([]float32, len(h))
	for i, x := range h {
		out[i] = ToFloat32(x)
	}
	return out
}

// DecodeInto converts h into dst, which must have the same length.
func DecodeInto(dst []float32, h []uint16) {
	if len(dst) != len(h) {
		panic("f16: DecodeInto length mismatch")
	}
	for i, x := range h {
		dst[i] = ToFloat32(x)
	}
}

// Dot returns the inner product of a half-precision stored vector with a
// float32 query: the query stays in full precision and each stored
// component is widened once through the exact lookup table. Four
// accumulators (lane j sums elements j, j+4, …; the remainder folds into
// lane 0; lanes are added left to right) pin the rounding order every
// scan in internal/vecstore reproduces. The four add chains are also the
// loop's limit: each waits on the previous add's latency, which is why
// the scans score rows through DotRows.
func Dot(h []uint16, q []float32) float32 {
	if len(h) != len(q) {
		panic("f16: Dot length mismatch")
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(h); i += 4 {
		s0 += ToFloat32(h[i]) * q[i]
		s1 += ToFloat32(h[i+1]) * q[i+1]
		s2 += ToFloat32(h[i+2]) * q[i+2]
		s3 += ToFloat32(h[i+3]) * q[i+3]
	}
	for ; i < len(h); i++ {
		s0 += ToFloat32(h[i]) * q[i]
	}
	return s0 + s1 + s2 + s3
}

// MaxDotRows is the most rows one DotRows call scores.
const MaxDotRows = 8

// DotRows sets out[i] = Dot(rows[i], q) bit for bit for up to MaxDotRows
// rows, in one pass that loads each query chunk once for all of them. It is
// the FP16 scoring kernel of internal/vecstore's scans. On amd64 hosts with
// F16C it runs in assembly: Dot's four lanes are exactly one 4-wide SIMD
// accumulator per row, so eight rows give eight independent add chains;
// elsewhere it is Dot per row.
func DotRows(out []float32, rows [][]uint16, q []float32) {
	if len(rows) > MaxDotRows || len(out) < len(rows) {
		panic("f16: DotRows takes at most MaxDotRows rows and one out slot per row")
	}
	for _, r := range rows {
		if len(r) != len(q) {
			panic("f16: DotRows length mismatch")
		}
	}
	if len(rows) > 0 {
		dotRows(out, rows, q)
	}
}

// dotRowsPortable is DotRows without the assembly kernel.
func dotRowsPortable(out []float32, rows [][]uint16, q []float32) {
	for i, r := range rows {
		out[i] = Dot(r, q)
	}
}

// DotI8Rows sets out[i] to the integer inner product of q with row i of
// rows, the int8 codes rows[i*len(q):(i+1)*len(q)], for every one of
// len(out) rows. q holds int8 codes widened to int16 once by the caller, so
// a query scored against many tiles is widened once. The sums are exact
// integers (wrapping modulo 2^32 only past 133 144 int8 dimensions), and
// integer addition associates, so every accumulation width and order gives
// the same result: the AVX2 kernel on amd64 and the plain loop elsewhere
// need no bit-parity argument, only equality. It is the first-pass kernel
// of internal/vecstore's scans.
func DotI8Rows(out []int32, rows []int8, q []int16) {
	if len(rows) != len(out)*len(q) {
		panic("f16: DotI8Rows wants len(out) rows of len(q) codes")
	}
	if len(q) == 0 {
		clear(out)
		return
	}
	if len(out) > 0 {
		dotI8Rows(out, rows, q)
	}
}

// dotI8RowsPortable is DotI8Rows without the assembly kernel.
func dotI8RowsPortable(out []int32, rows []int8, q []int16) {
	d := len(q)
	for i := range out {
		var s int32
		for j, c := range rows[i*d : (i+1)*d] {
			s += int32(c) * int32(q[j])
		}
		out[i] = s
	}
}

// DotF32 returns the inner product of two float32 vectors.
func DotF32(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("f16: DotF32 length mismatch")
	}
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

// Norm returns the Euclidean norm of a float32 vector.
func Norm(v []float32) float32 {
	return float32(math.Sqrt(float64(DotF32(v, v))))
}

// Normalize scales v to unit L2 norm in place. Zero vectors are left
// untouched (cosine against them is defined as 0 by callers).
func Normalize(v []float32) {
	n := Norm(v)
	if n == 0 {
		return
	}
	inv := 1 / n
	for i := range v {
		v[i] *= inv
	}
}

// Cosine returns the cosine similarity of two float32 vectors, 0 if either
// is a zero vector.
func Cosine(a, b []float32) float32 {
	na, nb := Norm(a), Norm(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return DotF32(a, b) / (na * nb)
}

// BytesPerVector reports the storage footprint of one half-precision vector
// of the given dimension, used for dataset-statistics reporting.
func BytesPerVector(dim int) int { return 2 * dim }
