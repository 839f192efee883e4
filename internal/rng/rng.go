// Package rng provides deterministic, splittable pseudo-random number
// generation and the sampling distributions used across the MCQA pipeline.
//
// Every stochastic component in this repository (corpus synthesis, question
// difficulty, simulated model responses) draws from an rng.Source seeded from
// a single experiment seed, so all artifacts are bit-reproducible. Sources
// are splittable: a parent source derives independent child streams by name,
// which keeps parallel pipeline stages deterministic regardless of
// scheduling order.
package rng

import "math"

// Source is a deterministic PRNG based on xoshiro256** seeded via SplitMix64.
// It is NOT safe for concurrent use; derive per-goroutine children with
// Split instead of sharing one Source.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the seed-expansion state and returns the next value.
func splitmix64(x *uint64) uint64 {
	*x += 0x9E3779B97F4A7C15
	z := *x
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds give independent
// streams; the zero seed is valid.
func New(seed uint64) *Source {
	var s Source
	x := seed
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
	// xoshiro must not start at the all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9E3779B97F4A7C15
	}
	return &s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split derives an independent child stream identified by name. Children
// with distinct names (or derived from distinct parents) are statistically
// independent, and the derivation does not advance the parent, so sibling
// stages may be created in any order.
func (r *Source) Split(name string) *Source {
	return New(HashAdd(r.hashState(), name))
}

// SplitN derives an index-keyed child stream, for per-item determinism in
// data-parallel loops.
func (r *Source) SplitN(name string, n int) *Source {
	return New(HashAdd(hashUint64(r.hashState(), uint64(n)), name))
}

// hashState folds the generator state into an FNV-1a hash as 32
// little-endian bytes, the key Split and SplitN derive children from.
func (r *Source) hashState() uint64 {
	h := HashOffset
	for _, x := range r.s {
		h = hashUint64(h, x)
	}
	return h
}

// hashUint64 folds the 8 little-endian bytes of x into the FNV-1a state h.
func hashUint64(h, x uint64) uint64 {
	for k := 0; k < 8; k++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

// Float64 returns a uniform float in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := r.Uint64()
	hi, _ := mul64(v, uint64(n))
	return int(hi)
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xFFFFFFFF
	aL, aH := a&mask, a>>32
	bL, bH := b&mask, b>>32
	t := aH*bL + (aL*bL)>>32
	lo = a * b
	hi = aH*bH + t>>32 + (t&mask+aL*bH)>>32
	return hi, lo
}

// Bool returns true with probability p.
func (r *Source) Bool(p float64) bool { return r.Float64() < p }

// Normal returns a sample from N(mu, sigma^2) using the polar Box-Muller
// method.
func (r *Source) Normal(mu, sigma float64) float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return mu + sigma*u*math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exp returns an exponentially distributed sample with the given rate.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	return -math.Log(1-r.Float64()) / rate
}

// Gamma returns a Gamma(shape, 1) sample (Marsaglia–Tsang method).
func (r *Source) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("rng: Gamma with non-positive shape")
	}
	if shape < 1 {
		// Boost: Gamma(a) = Gamma(a+1) * U^(1/a)
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.Normal(0, 1)
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Beta returns a Beta(a, b) sample.
func (r *Source) Beta(a, b float64) float64 {
	x := r.Gamma(a)
	y := r.Gamma(b)
	if x+y == 0 {
		return 0.5
	}
	return x / (x + y)
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts performs a Fisher-Yates shuffle of p in place.
func (r *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle performs a Fisher-Yates shuffle using the provided swap function.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Choice returns a uniformly random index in [0, len), as a convenience for
// picking from slices.
func (r *Source) Choice(length int) int { return r.Intn(length) }

// Categorical samples an index proportionally to the non-negative weights.
// It panics if weights is empty or sums to zero.
func (r *Source) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative categorical weight")
		}
		total += w
	}
	if len(weights) == 0 || total == 0 {
		panic("rng: empty or zero-sum categorical weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// SampleK returns k distinct indices from [0, n) via reservoir sampling;
// order is randomized. If k >= n all indices are returned.
func (r *Source) SampleK(n, k int) []int {
	if k >= n {
		return r.Perm(n)
	}
	res := make([]int, k)
	for i := 0; i < k; i++ {
		res[i] = i
	}
	for i := k; i < n; i++ {
		j := r.Intn(i + 1)
		if j < k {
			res[j] = i
		}
	}
	r.ShuffleInts(res)
	return res
}

// Zipf samples ranks in [0, n) with probability proportional to
// 1/(rank+1)^s, the canonical heavy-tailed distribution for topic and term
// popularity in scientific corpora.
type Zipf struct {
	cdf []float64
}

// NewZipf precomputes a Zipf(n, s) sampler. It panics if n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: Zipf with non-positive n")
	}
	if s < 0 {
		panic("rng: Zipf with negative exponent")
	}
	cdf := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cdf[i] = total
	}
	for i := range cdf {
		cdf[i] /= total
	}
	return &Zipf{cdf: cdf}
}

// N returns the support size of the sampler.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws a rank in [0, N).
func (z *Zipf) Sample(r *Source) int {
	x := r.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// HashOffset is the FNV-1a offset basis: the hash of the empty string and
// the state an incremental HashAdd chain starts from.
const HashOffset uint64 = 14695981039346656037

const fnvPrime = 1099511628211

// HashAdd folds the bytes of s into the running FNV-1a state h, so
// HashAdd(HashAdd(HashOffset, a), b) == HashString(a+b) without building
// a+b. It allocates nothing.
func HashAdd(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// HashString returns a stable 64-bit hash of s (64-bit FNV-1a), independent
// of any Source state. It is used wherever stable content-addressed
// identifiers are needed (chunk ids, provenance keys).
func HashString(s string) uint64 { return HashAdd(HashOffset, s) }

// HashStrings hashes the concatenation of the parts with separators, giving
// a stable composite key: each part is followed by a 0x1f byte.
func HashStrings(parts ...string) uint64 {
	h := HashOffset
	for _, p := range parts {
		h = HashAdd(HashAdd(h, p), "\x1f")
	}
	return h
}
