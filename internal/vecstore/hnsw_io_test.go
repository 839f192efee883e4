package vecstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/rng"
)

// saveHNSWFixture builds a small multi-layer graph and saves it.
func saveHNSWFixture(t *testing.T, dir string, n int) (*HNSW, string) {
	t.Helper()
	h, _ := buildHNSW(t, n, 16, HNSWConfig{Seed: 17, M: 6, EfConstruction: 40, EfSearch: 48})
	path := filepath.Join(dir, "hnsw.vsf")
	if err := h.Save(path); err != nil {
		t.Fatal(err)
	}
	return h, path
}

// TestVSF5SaveLoadRoundTrip pins that every piece of graph state —
// config, levels, entry, adjacency, code block — survives the VSF5
// round trip with no reconstruction: the loaded index must answer
// bit-identically to the saved one.
func TestVSF5SaveLoadRoundTrip(t *testing.T) {
	h, path := saveHNSWFixture(t, t.TempDir(), 300)
	loaded, err := LoadHNSW(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != h.Len() || loaded.Dim() != h.Dim() {
		t.Fatalf("shape: %d/%d vs %d/%d", loaded.Len(), loaded.Dim(), h.Len(), h.Dim())
	}
	if loaded.m != h.m || loaded.efConstruction != h.efConstruction ||
		loaded.efSearch != h.efSearch || loaded.seed != h.seed {
		t.Fatalf("config did not round-trip: %+v vs %+v", loaded, h)
	}
	if loaded.entry != h.entry || loaded.maxLv != h.maxLv {
		t.Fatalf("entry/maxLv: (%d,%d) vs (%d,%d)", loaded.entry, loaded.maxLv, h.entry, h.maxLv)
	}
	for id := range h.keys {
		if loaded.Key(id) != h.Key(id) || loaded.levels[id] != h.levels[id] {
			t.Fatalf("node %d key/level mismatch", id)
		}
		for lv := 0; lv <= h.levels[id]; lv++ {
			got, want := loaded.neighbours(id, lv), h.neighbours(id, lv)
			if len(got) != len(want) {
				t.Fatalf("node %d level %d degree %d, want %d", id, lv, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("node %d level %d slot %d: %d, want %d", id, lv, i, got[i], want[i])
				}
			}
		}
	}
	queries := randomUnit(rng.New(23), 25, 16)
	for qi, q := range queries {
		a, b := loaded.Search(q, 7), h.Search(q, 7)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d results, want %d", qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d result %d: %+v, want %+v", qi, i, a[i], b[i])
			}
		}
	}
}

// TestVSF5LoadDispatch pins that the generic Load returns a *HNSW for a
// VSF5 file.
func TestVSF5LoadDispatch(t *testing.T) {
	_, path := saveHNSWFixture(t, t.TempDir(), 60)
	ix, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.(*HNSW); !ok {
		t.Fatalf("Load returned %T, want *HNSW", ix)
	}
}

// TestVSF5EmptyRoundTrip covers the biased entry/maxLv encoding for an
// index with no vectors.
func TestVSF5EmptyRoundTrip(t *testing.T) {
	h := NewHNSW(HNSWConfig{Dim: 8, Seed: 3})
	path := filepath.Join(t.TempDir(), "empty.vsf")
	if err := h.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadHNSW(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 0 || loaded.entry != -1 || loaded.maxLv != -1 {
		t.Fatalf("empty index loaded as len=%d entry=%d maxLv=%d", loaded.Len(), loaded.entry, loaded.maxLv)
	}
	if res := loaded.Search(make([]float32, 8), 3); res != nil {
		t.Fatalf("empty index returned %v", res)
	}
}

// TestVSF5LoadThenAddMatchesNeverSaved pins the rng fast-forward: adding
// to a loaded index must produce the same graph and results as adding to
// an index that was never saved (the level stream resumes mid-sequence).
func TestVSF5LoadThenAddMatchesNeverSaved(t *testing.T) {
	cfg := HNSWConfig{Dim: 12, Seed: 29, M: 8}
	r := rng.New(31)
	vecs := randomUnit(r, 300, 12)
	oracle := NewHNSW(cfg)
	saved := NewHNSW(cfg)
	for i, v := range vecs[:200] {
		key := fmt.Sprintf("k%03d", i)
		oracle.Add(v, key)
		saved.Add(v, key)
	}
	path := filepath.Join(t.TempDir(), "partial.vsf")
	if err := saved.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadHNSW(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vecs[200:] {
		key := fmt.Sprintf("k%03d", 200+i)
		oracle.Add(v, key)
		loaded.Add(v, key)
	}
	queries := randomUnit(rng.New(37), 20, 12)
	for qi, q := range queries {
		a, b := loaded.Search(q, 5), oracle.Search(q, 5)
		if len(a) != len(b) {
			t.Fatalf("query %d: %d results, want %d", qi, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d result %d: %+v, want %+v (level stream diverged after load)", qi, i, a[i], b[i])
			}
		}
	}
}

// TestVSF5CrossFormatRejection: family-specific loaders must refuse each
// other's files with ErrBadFormat.
func TestVSF5CrossFormatRejection(t *testing.T) {
	dir := t.TempDir()
	_, hnswPath := saveHNSWFixture(t, dir, 40)

	flat := NewFlat(16)
	for i, v := range randomUnit(rng.New(41), 20, 16) {
		flat.Add(v, fmt.Sprintf("f%d", i))
	}
	flatPath := filepath.Join(dir, "flat.vsf")
	if err := flat.Save(flatPath); err != nil {
		t.Fatal(err)
	}

	if _, err := LoadFlat(hnswPath); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("LoadFlat(VSF5) = %v, want ErrBadFormat", err)
	}
	if _, err := LoadHNSW(flatPath); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("LoadHNSW(VSF2) = %v, want ErrBadFormat", err)
	}
}

// TestVSF5RejectsTruncated cuts a valid file at several depths — inside
// the header, the key records, the adjacency, the code block — and every
// cut must fail with ErrBadFormat rather than a panic or a short index.
func TestVSF5RejectsTruncated(t *testing.T) {
	dir := t.TempDir()
	_, path := saveHNSWFixture(t, dir, 80)
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{4, 10, 30, 44, len(data) / 4, len(data) / 2, len(data) - 1} {
		trunc := filepath.Join(dir, fmt.Sprintf("trunc%d.vsf", cut))
		if err := writeFile(trunc, data[:cut]); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadHNSW(trunc); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("cut at %d loaded: %v", cut, err)
		}
	}
}

// TestVSF5RejectsHeaderBombs hand-crafts headers whose decoded sizes the
// file cannot back — the allocbound failure class — plus graph-invariant
// violations a fuzzer could synthesise.
func TestVSF5RejectsHeaderBombs(t *testing.T) {
	dir := t.TempDir()
	le := binary.LittleEndian
	// header: magic, dim, m, efC, efS u32s... seed u64, maxLv+1, entry+1 u32s, count u64.
	mk := func(dim, m, efc, efs uint32, seed uint64, maxLvP, entryP uint32, count uint64, tail []byte) []byte {
		b := []byte("VSF5")
		for _, v := range []uint32{dim, m, efc, efs} {
			b = le.AppendUint32(b, v)
		}
		b = le.AppendUint64(b, seed)
		b = le.AppendUint32(b, maxLvP)
		b = le.AppendUint32(b, entryP)
		b = le.AppendUint64(b, count)
		return append(b, tail...)
	}
	cases := map[string][]byte{
		// count claims 2^27 rows in a 40-byte payload.
		"count-bomb": mk(8, 4, 16, 16, 1, 1, 1, 1<<27, nil),
		// dim 0 and dim beyond the sanity cap.
		"dim-zero": mk(0, 4, 16, 16, 1, 0, 0, 0, nil),
		"dim-huge": mk(1<<20, 4, 16, 16, 1, 0, 0, 0, nil),
		// M beyond the fixed-slot reader limit.
		"m-huge": mk(8, 1<<16, 16, 16, 1, 0, 0, 0, nil),
		// entry point outside count.
		"entry-out": mk(8, 4, 16, 16, 1, 1, 9, 2, nil),
		// non-empty graph claiming no entry.
		"no-entry": mk(8, 4, 16, 16, 1, 0, 0, 2, nil),
		// empty graph claiming an entry.
		"phantom-entry": mk(8, 4, 16, 16, 1, 1, 1, 0, nil),
		// max level beyond the layer cap.
		"level-bomb": mk(8, 4, 16, 16, 1, 1<<30, 1, 1, nil),
	}
	for name, data := range cases {
		path := filepath.Join(dir, name+".vsf")
		if err := writeFile(path, data); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadHNSW(path); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("%s loaded: %v", name, err)
		}
	}
}
