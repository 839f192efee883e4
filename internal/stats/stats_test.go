package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("mean %v", m)
	}
	if v := Variance(xs); math.Abs(v-4.571428571428571) > 1e-12 {
		t.Fatalf("variance %v", v)
	}
	if StdDev(nil) != 0 || Mean(nil) != 0 {
		t.Fatal("empty input not zero")
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("single-element variance")
	}
}

func TestWilsonCI(t *testing.T) {
	ci := WilsonCI(80, 100)
	if ci.Lo >= 0.8 || ci.Hi <= 0.8 {
		t.Fatalf("CI %v does not bracket 0.8", ci)
	}
	if ci.Hi-ci.Lo > 0.2 {
		t.Fatalf("CI %v too wide for n=100", ci)
	}
	// Extremes stay in [0,1].
	if lo := WilsonCI(0, 50); lo.Lo < 0 || lo.Hi > 0.15 {
		t.Fatalf("k=0 CI %v", lo)
	}
	if hi := WilsonCI(50, 50); hi.Hi > 1 || hi.Lo < 0.85 {
		t.Fatalf("k=n CI %v", hi)
	}
	if z := WilsonCI(0, 0); z.Lo != 0 || z.Hi != 0 {
		t.Fatalf("n=0 CI %v", z)
	}
}

func TestWilsonCIShrinksWithN(t *testing.T) {
	small := WilsonCI(8, 10)
	large := WilsonCI(800, 1000)
	if large.Hi-large.Lo >= small.Hi-small.Lo {
		t.Fatal("CI did not shrink with sample size")
	}
}

// Property: Wilson CI always brackets the point estimate and stays in [0,1].
func TestQuickWilson(t *testing.T) {
	f := func(kRaw, nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		k := int(kRaw) % (n + 1)
		ci := WilsonCI(k, n)
		p := float64(k) / float64(n)
		return ci.Lo >= 0 && ci.Hi <= 1 && ci.Lo <= p+1e-12 && ci.Hi >= p-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBootstrapMeanCI(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		if i%4 == 0 {
			xs[i] = 1
		}
	}
	ci := BootstrapMeanCI(xs, 500, 1)
	if ci.Lo >= 0.25 || ci.Hi <= 0.25 {
		t.Fatalf("bootstrap CI %v does not bracket 0.25", ci)
	}
	if d := BootstrapMeanCI(nil, 100, 1); d.Lo != 0 || d.Hi != 0 {
		t.Fatal("empty bootstrap nonzero")
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	xs := []float64{1, 0, 1, 1, 0, 1, 0, 0, 1, 1}
	a := BootstrapMeanCI(xs, 200, 7)
	b := BootstrapMeanCI(xs, 200, 7)
	if a != b {
		t.Fatal("bootstrap not deterministic for same seed")
	}
}

func TestPairedBootstrapDelta(t *testing.T) {
	a := make([]float64, 300)
	b := make([]float64, 300)
	for i := range a {
		if i%2 == 0 {
			a[i] = 1
		}
		if i%5 == 0 {
			b[i] = 1
		}
	}
	// mean(a)=0.5, mean(b)=0.2 → delta ~0.3.
	ci := PairedBootstrapDelta(a, b, 400, 3)
	if ci.Lo >= 0.3 || ci.Hi <= 0.3 {
		t.Fatalf("delta CI %v does not bracket 0.3", ci)
	}
}

func TestPairedBootstrapPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	PairedBootstrapDelta([]float64{1}, []float64{1, 2}, 10, 1)
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.55, 0.9, -5, 99}
	h := Histogram(xs, 0, 1, 4)
	if h[0] != 3 || h[1] != 0 || h[2] != 1 || h[3] != 2 {
		t.Fatalf("histogram %v", h)
	}
	if got := Histogram(xs, 1, 0, 4); len(got) != 4 {
		t.Fatal("degenerate range")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		q    float64
		want float64
	}{
		{0, 1}, {0.5, 5}, {0.95, 9}, {0.99, 9}, {1, 10},
	} {
		if got := Quantile(xs, c.q); got != c.want {
			t.Fatalf("Quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile([]float32{0.25}, 0.9); got != 0.25 {
		t.Fatalf("single sample: %v", got)
	}
	if got := Quantile([]int64(nil), 0.5); got != 0 {
		t.Fatalf("empty input: %v", got)
	}
}

func TestRelImprovement(t *testing.T) {
	if got := RelImprovement(0.5, 0.75); math.Abs(got-50) > 1e-12 {
		t.Fatalf("RelImprovement %v", got)
	}
	if got := RelImprovement(0.5, 0.4); math.Abs(got+20) > 1e-12 {
		t.Fatalf("negative improvement %v", got)
	}
	if RelImprovement(0, 1) != 0 {
		t.Fatal("zero base not guarded")
	}
}
