package vecstore

import (
	"runtime"
	"sync/atomic"

	"repro/internal/f16"
	"repro/internal/pipeline"
	"repro/internal/rng"
)

// KMeans clusters vectors by k-means, the quantizer training used by
// IVF-PQ's coarse quantizer and its PQ sub-quantizers. The default
// objective is spherical (cosine: assignment by max inner product,
// centroids re-normalised each round), which fits the unit-norm embedding
// vectors; Euclidean selects plain L2 k-means (assignment by min squared
// distance, centroids are arithmetic means), which is what
// product-quantization sub-vectors need — they are not unit-norm, and
// normalising their centroids would corrupt reconstruction.
// Initialisation is k-means++ from a seeded PRNG, so training is
// deterministic either way.
type KMeans struct {
	K         int // number of centroids
	MaxIter   int // iteration cap (default 15)
	Seed      uint64
	Euclidean bool // plain L2 objective instead of spherical/cosine
	Centroids [][]float32
}

// dist is the k-means++ seeding distance: 1-dot clamped at 0 for the
// spherical objective, squared Euclidean distance otherwise.
func (km *KMeans) dist(v, c []float32) float64 {
	if km.Euclidean {
		return float64(sqDist(v, c))
	}
	d := 1 - float64(f16.DotF32(v, c))
	if d < 0 {
		d = 0
	}
	return d
}

// score is the assignment affinity (higher is closer): inner product for
// the spherical objective, negated squared distance for Euclidean.
func (km *KMeans) score(v, c []float32) float32 {
	if km.Euclidean {
		return -sqDist(v, c)
	}
	return f16.DotF32(v, c)
}

// sqDist returns the squared Euclidean distance between a and b.
func sqDist(a, b []float32) float32 {
	var s float32
	for i, x := range a {
		d := x - b[i]
		s += d * d
	}
	return s
}

// Train fits centroids to the given vectors. Under the spherical objective
// vectors are assumed (but not required) to be unit-norm and centroids are
// re-normalised each round; under Euclidean they are plain means. Train
// panics if there are fewer vectors than centroids.
func (km *KMeans) Train(vecs [][]float32) {
	if len(vecs) < km.K {
		panic("vecstore: fewer vectors than centroids")
	}
	if km.MaxIter <= 0 {
		km.MaxIter = 15
	}
	dim := len(vecs[0])
	r := rng.New(km.Seed)

	// k-means++ seeding on cosine distance (1 - dot for unit vectors).
	centroids := make([][]float32, 0, km.K)
	first := r.Intn(len(vecs))
	centroids = append(centroids, cloneVec(vecs[first]))
	dist := make([]float64, len(vecs))
	for i := range dist {
		dist[i] = km.dist(vecs[i], centroids[0])
	}
	for len(centroids) < km.K {
		var total float64
		for _, d := range dist {
			total += d
		}
		var pick int
		if total <= 0 {
			pick = r.Intn(len(vecs))
		} else {
			x := r.Float64() * total
			for i, d := range dist {
				x -= d
				if x < 0 {
					pick = i
					break
				}
			}
		}
		c := cloneVec(vecs[pick])
		centroids = append(centroids, c)
		for i := range dist {
			if d := km.dist(vecs[i], c); d < dist[i] {
				dist[i] = d
			}
		}
	}

	assign := make([]int, len(vecs))
	workers := runtime.GOMAXPROCS(0)
	for iter := 0; iter < km.MaxIter; iter++ {
		// Assignment step, parallel over vectors.
		changed := km.assignAll(vecs, centroids, assign, workers)
		// Update step.
		sums := make([][]float32, km.K)
		counts := make([]int, km.K)
		for c := range sums {
			sums[c] = make([]float32, dim)
		}
		for i, c := range assign {
			counts[c]++
			v := vecs[i]
			s := sums[c]
			for j := range s {
				s[j] += v[j]
			}
		}
		for c := range centroids {
			if counts[c] == 0 {
				// Re-seed empty cluster from a random vector.
				copy(centroids[c], vecs[r.Intn(len(vecs))])
				continue
			}
			copy(centroids[c], sums[c])
			if km.Euclidean {
				inv := 1 / float32(counts[c])
				for j := range centroids[c] {
					centroids[c][j] *= inv
				}
			} else {
				f16.Normalize(centroids[c])
			}
		}
		if changed == 0 && iter > 0 {
			break
		}
	}
	km.Centroids = centroids
}

// assignAll assigns each vector to its nearest centroid under the active
// objective and returns the number of changed assignments. Work is handed
// out in 256-row blocks through pipeline.For's atomic cursor (no mutex on
// the hot path); workers <= 0 means one.
func (km *KMeans) assignAll(vecs, centroids [][]float32, assign []int, workers int) int {
	if workers <= 0 {
		workers = 1
	}
	const block = 256
	var changed atomic.Int64
	pipeline.For((len(vecs)+block-1)/block, workers, func(b int) {
		var localChanged int64
		start := b * block
		end := min(start+block, len(vecs))
		for i := start; i < end; i++ {
			best, bestScore := 0, km.score(vecs[i], centroids[0])
			for c := 1; c < len(centroids); c++ {
				if s := km.score(vecs[i], centroids[c]); s > bestScore {
					best, bestScore = c, s
				}
			}
			if assign[i] != best {
				assign[i] = best
				localChanged++
			}
		}
		changed.Add(localChanged)
	})
	return int(changed.Load())
}

// Nearest returns the index of the closest centroid under the active
// objective (largest inner product, or smallest squared distance when
// Euclidean).
func (km *KMeans) Nearest(v []float32) int {
	best, bestScore := 0, km.score(v, km.Centroids[0])
	for c := 1; c < len(km.Centroids); c++ {
		if s := km.score(v, km.Centroids[c]); s > bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

// NearestN returns the indexes of the n centroids with the largest inner
// products against v, in descending order.
func (km *KMeans) NearestN(v []float32, n int) []int {
	if n > len(km.Centroids) {
		n = len(km.Centroids)
	}
	h := newTopK(n)
	for c, cent := range km.Centroids {
		h.push(c, f16.DotF32(cent, v))
	}
	res := h.results(make([]string, len(km.Centroids)))
	out := make([]int, len(res))
	for i, r := range res {
		out[i] = r.ID
	}
	return out
}

func cloneVec(v []float32) []float32 {
	c := make([]float32, len(v))
	copy(c, v)
	return c
}
