package main

import "testing"

// TestValidateConfig pins the flag combinations ragserve must reject
// before it spends the corpus build on them.
func TestValidateConfig(t *testing.T) {
	cases := []struct {
		name                    string
		index, shard, saveIndex string
		scale                   float64
		ok                      bool
	}{
		{"defaults", "flat", "", "", 0.02, true},
		{"every kind saves but ivf", "hnsw", "1/3", "idx.vsf", 0.02, true},
		{"bad index", "bogus", "", "", 0.02, false},
		{"bad shard", "flat", "5/3", "", 0.02, false},
		{"zero scale", "flat", "", "", 0, false},
		{"ivf cannot be saved", "ivf", "", "idx.vsf", 0.02, false},
		{"ivf without save", "ivf", "", "", 0.02, true},
	}
	for _, c := range cases {
		err := validateConfig(c.index, c.shard, c.saveIndex, c.scale)
		if (err == nil) != c.ok {
			t.Errorf("%s: validateConfig(%q, %q, %q, %v) = %v, want ok=%v",
				c.name, c.index, c.shard, c.saveIndex, c.scale, err, c.ok)
		}
	}
}
