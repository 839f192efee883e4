package main

import (
	"path/filepath"
	"testing"

	"repro/internal/rag"
	"repro/internal/vecstore"
)

// TestValidateConfig pins the flag combinations ragserve must reject
// before it spends the corpus build on them.
func TestValidateConfig(t *testing.T) {
	cases := []struct {
		name  string
		shard string
		scale float64
		ok    bool
	}{
		{"defaults", "", 0.02, true},
		{"shard", "1/3", 0.02, true},
		{"bad shard", "5/3", 0.02, false},
		{"zero scale", "", 0, false},
	}
	for _, c := range cases {
		err := validateConfig(c.shard, c.scale)
		if (err == nil) != c.ok {
			t.Errorf("%s: validateConfig(%q, %v) = %v, want ok=%v",
				c.name, c.shard, c.scale, err, c.ok)
		}
	}
	// -save-index writes the chunk store's Flat as VSF2, and the swap
	// loader reads it back at full length.
	flat := vecstore.NewFlat(4)
	for i := 0; i < 40; i++ {
		flat.Add([]float32{float32(i%4 + 1), float32(i % 3), float32(i % 5), 1}, string(rune('a'+i%26)))
	}
	path := filepath.Join(t.TempDir(), "chunks.vsf")
	if err := rag.WrapChunkStore(nil, flat, nil).SaveIndex(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	loaded, err := vecstore.LoadFlat(path)
	if err != nil || loaded.Len() != flat.Len() {
		t.Fatalf("load: %v", err)
	}
}
