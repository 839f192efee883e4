package vecstore

import (
	"testing"

	"repro/internal/rng"
)

func TestKMeansClusterSeparation(t *testing.T) {
	// Two well-separated blobs must end in distinct clusters.
	r := rng.New(37)
	const dim = 8
	var vecs [][]float32
	for i := 0; i < 100; i++ {
		v := make([]float32, dim)
		v[0] = 1 + float32(r.Normal(0, 0.05))
		vecs = append(vecs, unit(v))
	}
	for i := 0; i < 100; i++ {
		v := make([]float32, dim)
		v[1] = 1 + float32(r.Normal(0, 0.05))
		vecs = append(vecs, unit(v))
	}
	km := &KMeans{K: 2, Seed: 5}
	km.Train(vecs)
	c0 := km.Nearest(vecs[0])
	for i := 1; i < 100; i++ {
		if km.Nearest(vecs[i]) != c0 {
			t.Fatal("blob A split across clusters")
		}
	}
	c1 := km.Nearest(vecs[100])
	if c1 == c0 {
		t.Fatal("blobs merged")
	}
	for i := 101; i < 200; i++ {
		if km.Nearest(vecs[i]) != c1 {
			t.Fatal("blob B split across clusters")
		}
	}
}

func unit(v []float32) []float32 {
	var n float32
	for _, x := range v {
		n += x * x
	}
	if n > 0 {
		inv := 1 / sqrt32(n)
		for i := range v {
			v[i] *= inv
		}
	}
	return v
}

func sqrt32(x float32) float32 {
	// Newton iterations suffice for test usage.
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}

func TestKMeansFewerVectorsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	km := &KMeans{K: 5, Seed: 1}
	km.Train([][]float32{{1, 0}})
}

func TestKMeansNearestN(t *testing.T) {
	km := &KMeans{K: 3, Seed: 1}
	km.Centroids = [][]float32{{1, 0}, {0, 1}, {-1, 0}}
	got := km.NearestN([]float32{0.9, 0.1}, 2)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("NearestN = %v", got)
	}
	all := km.NearestN([]float32{1, 0}, 10)
	if len(all) != 3 {
		t.Fatalf("NearestN clamp failed: %v", all)
	}
}
