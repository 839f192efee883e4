package vecstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoad hammers the VSF loader's magic check and header parsing with
// arbitrary bytes: whatever LoadFlat is fed, it must either return a
// usable index or fail with ErrBadFormat — never panic, and never size an
// allocation from header fields the file cannot physically back (the
// size-budget checks in readFlat exist because early fuzzing found corrupt
// 12-byte headers driving multi-gigabyte makes). Seeds are a real VSF2
// file and well-formed files of the retired VSF4 and VSF5, plus their
// truncated prefixes; the corrupt header corpus lives in
// testdata/fuzz/FuzzLoad, where the retired VSF3 and VSF4 entries now pin
// rejection.
func FuzzLoad(f *testing.F) {
	dir := f.TempDir()
	seed := func(name string, save func(path string) error) {
		path := filepath.Join(dir, name)
		if err := save(path); err != nil {
			f.Fatalf("seed %s: %v", name, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatalf("seed %s: %v", name, err)
		}
		f.Add(data)
		// Truncations probe every io.ReadFull error path mid-section.
		for _, cut := range []int{4, len(data) / 2, len(data) - 1} {
			if cut > 0 && cut < len(data) {
				f.Add(data[:cut])
			}
		}
	}

	flat := NewFlat(8)
	for i := 0; i < 40; i++ {
		vec := make([]float32, 8)
		for d := range vec {
			vec[d] = float32(i*8+d) / 320
		}
		flat.Add(vec, string(rune('a'+i%26)))
	}
	seed("flat.vsf", flat.Save)
	// Files of the retired IVF-PQ format must fail like any unknown magic.
	for _, flags := range []uint32{0, vsf4Residual} {
		data := retiredVSF4(flags)
		seed("vsf4.vsf", func(path string) error { return os.WriteFile(path, data, 0o644) })
	}
	// So must files of the retired HNSW format.
	v5 := retiredVSF5()
	seed("vsf5.vsf", func(path string) error { return os.WriteFile(path, v5, 0o644) })
	f.Add([]byte("VSF1"))
	f.Add([]byte("VSF2\x08\x00\x00\x00\xff\xff\xff\xff\xff\xff\xff\xff"))
	// VSF5 header bomb: plausible dim/M but a count the payload can't back.
	f.Add([]byte("VSF5\x08\x00\x00\x00\x04\x00\x00\x00\x10\x00\x00\x00\x10\x00\x00\x00" +
		"\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x01\x00\x00\x00" +
		"\xff\xff\xff\xff\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		path := filepath.Join(t.TempDir(), "fuzz.vsf")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := LoadFlat(path)
		if err != nil {
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("LoadFlat: %v, want ErrBadFormat", err)
			}
			return
		}
		// A successfully loaded index must honour the Index contract well
		// enough to be searched within the file's own bounds.
		if ix.Dim() <= 0 || ix.Len() < 0 {
			t.Fatalf("loaded index with dim=%d len=%d", ix.Dim(), ix.Len())
		}
		query := make([]float32, ix.Dim())
		for d := range query {
			query[d] = 1
		}
		res := ix.Search(query, 3)
		if len(res) > 3 {
			t.Fatalf("Search(k=3) returned %d results", len(res))
		}
		for _, r := range res {
			if r.ID < 0 || r.ID >= ix.Len() {
				t.Fatalf("result id %d outside [0,%d)", r.ID, ix.Len())
			}
		}
	})
}
