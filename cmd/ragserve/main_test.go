package main

import (
	"path/filepath"
	"testing"

	"repro/internal/vecstore"
)

// TestValidateConfig pins the flag combinations ragserve must reject
// before it spends the corpus build on them.
func TestValidateConfig(t *testing.T) {
	cases := []struct {
		name         string
		index, shard string
		scale        float64
		ok           bool
	}{
		{"defaults", "flat", "", 0.02, true},
		{"hnsw on a shard", "hnsw", "1/3", 0.02, true},
		{"bad index", "bogus", "", 0.02, false},
		{"retired ivf", "ivf", "", 0.02, false},
		{"retired pq", "pq", "", 0.02, false},
		{"retired ivfpq", "ivfpq", "", 0.02, false},
		{"bad shard", "flat", "5/3", 0.02, false},
		{"zero scale", "flat", "", 0, false},
	}
	for _, c := range cases {
		err := validateConfig(c.index, c.shard, c.scale)
		if (err == nil) != c.ok {
			t.Errorf("%s: validateConfig(%q, %q, %v) = %v, want ok=%v",
				c.name, c.index, c.shard, c.scale, err, c.ok)
		}
	}
	// Every kind is valid and has an on-disk format, so -save-index works
	// with each: the built index saves and loads back at full length.
	flat := vecstore.NewFlat(4)
	for i := 0; i < 40; i++ {
		flat.Add([]float32{float32(i%4 + 1), float32(i % 3), float32(i % 5), 1}, string(rune('a'+i%26)))
	}
	for _, k := range indexKinds {
		if err := validateConfig(k.name, "", 0.02); err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		var ix vecstore.Index = flat
		if k.build != nil {
			ix = k.build(flat, 1)
		}
		saver, ok := ix.(interface{ Save(string) error })
		if !ok {
			t.Fatalf("%s: %T has no Save", k.name, ix)
		}
		path := filepath.Join(t.TempDir(), k.name+".vsf")
		if err := saver.Save(path); err != nil {
			t.Fatalf("%s: save: %v", k.name, err)
		}
		loaded, err := vecstore.Load(path)
		if err != nil || loaded.Len() != flat.Len() {
			t.Fatalf("%s: load: %v", k.name, err)
		}
	}
}
