package vecstore

import (
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/f16"
	"repro/internal/rng"
)

// randomUnit returns n random unit vectors of the given dim.
func randomUnit(r *rng.Source, n, dim int) [][]float32 {
	out := make([][]float32, n)
	for i := range out {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(r.Normal(0, 1))
		}
		f16.Normalize(v)
		out[i] = v
	}
	return out
}

func writeFile(path string, data []byte) error { return os.WriteFile(path, data, 0o644) }
func readFile(path string) ([]byte, error)     { return os.ReadFile(path) }

func TestFlatExactTopK(t *testing.T) {
	r := rng.New(1)
	const dim, n = 32, 200
	vecs := randomUnit(r, n, dim)
	ix := NewFlat(dim)
	for i, v := range vecs {
		ix.Add(v, "")
		_ = i
	}
	for trial := 0; trial < 20; trial++ {
		q := randomUnit(r, 1, dim)[0]
		got := ix.Search(q, 5)
		if len(got) != 5 {
			t.Fatalf("got %d results", len(got))
		}
		// Brute-force reference using the same FP16 scores.
		type pair struct {
			id    int
			score float32
		}
		best := make([]pair, 0, n)
		for id := range vecs {
			best = append(best, pair{id, f16.Dot(f16.Encode(vecs[id]), q)})
		}
		for i := 0; i < 5; i++ {
			maxIdx := i
			for j := i + 1; j < n; j++ {
				if best[j].score > best[maxIdx].score {
					maxIdx = j
				}
			}
			best[i], best[maxIdx] = best[maxIdx], best[i]
			if math.Abs(float64(got[i].Score-best[i].score)) > 1e-5 {
				t.Fatalf("trial %d rank %d: score %v want %v", trial, i, got[i].Score, best[i].score)
			}
		}
	}
}

func TestFlatDescendingOrder(t *testing.T) {
	r := rng.New(2)
	ix := NewFlat(16)
	for _, v := range randomUnit(r, 100, 16) {
		ix.Add(v, "")
	}
	q := randomUnit(r, 1, 16)[0]
	res := ix.Search(q, 10)
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatalf("results not descending at %d", i)
		}
	}
}

func TestFlatKeys(t *testing.T) {
	ix := NewFlat(4)
	id := ix.Add([]float32{1, 0, 0, 0}, "chunk-42")
	if ix.Key(id) != "chunk-42" {
		t.Fatalf("Key = %q", ix.Key(id))
	}
	res := ix.Search([]float32{1, 0, 0, 0}, 1)
	if res[0].Key != "chunk-42" {
		t.Fatalf("result key = %q", res[0].Key)
	}
}

func TestFlatSelfRetrieval(t *testing.T) {
	r := rng.New(3)
	const dim, n = 48, 300
	vecs := randomUnit(r, n, dim)
	ix := NewFlat(dim)
	for _, v := range vecs {
		ix.Add(v, "")
	}
	for i := 0; i < n; i += 17 {
		res := ix.Search(vecs[i], 1)
		if res[0].ID != i {
			t.Fatalf("self-retrieval of %d returned %d", i, res[0].ID)
		}
	}
}

func TestFlatKLargerThanN(t *testing.T) {
	ix := NewFlat(4)
	ix.Add([]float32{1, 0, 0, 0}, "a")
	ix.Add([]float32{0, 1, 0, 0}, "b")
	res := ix.Search([]float32{1, 0, 0, 0}, 10)
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
}

func TestFlatEmptyAndZeroK(t *testing.T) {
	ix := NewFlat(4)
	if res := ix.Search([]float32{1, 0, 0, 0}, 3); res != nil {
		t.Fatal("empty index returned results")
	}
	ix.Add([]float32{1, 0, 0, 0}, "a")
	if res := ix.Search([]float32{1, 0, 0, 0}, 0); res != nil {
		t.Fatal("k=0 returned results")
	}
}

func TestFlatDimMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dim mismatch")
		}
	}()
	NewFlat(4).Add([]float32{1, 2}, "x")
}

func TestFlatMemoryBytes(t *testing.T) {
	ix := NewFlat(384)
	v := make([]float32, 384)
	v[0] = 1
	for i := 0; i < 10; i++ {
		ix.Add(v, "")
	}
	// 768 B of FP16 codes plus the first pass's 384 int8 codes and its
	// 12-byte rowBound per row.
	if got := ix.MemoryBytes(); got != 10*(768+384+12) {
		t.Fatalf("MemoryBytes = %d", got)
	}
}

func TestBatchSearchMatchesSequential(t *testing.T) {
	r := rng.New(5)
	const dim = 24
	ix := NewFlat(dim)
	for _, v := range randomUnit(r, 150, dim) {
		ix.Add(v, "")
	}
	queries := randomUnit(r, 40, dim)
	batch := ix.SearchBatch(queries, 3)
	for i, q := range queries {
		seq := ix.Search(q, 3)
		if len(batch[i]) != len(seq) {
			t.Fatalf("query %d: length mismatch", i)
		}
		for j := range seq {
			if batch[i][j].ID != seq[j].ID {
				t.Fatalf("query %d rank %d: %d vs %d", i, j, batch[i][j].ID, seq[j].ID)
			}
		}
	}
}

func TestBatchSearchEmpty(t *testing.T) {
	ix := NewFlat(4)
	ix.Add([]float32{1, 0, 0, 0}, "")
	if out := ix.SearchBatch(nil, 3); len(out) != 0 {
		t.Fatal("nil queries gave output")
	}
}

// Property: the heap keeps exactly the k best scores for arbitrary input.
func TestQuickTopKHeap(t *testing.T) {
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%10) + 1
		r := rng.New(seed)
		n := 5 + r.Intn(100)
		scores := make([]float32, n)
		for i := range scores {
			scores[i] = float32(r.Normal(0, 1))
		}
		h := newTopK(k)
		for i, s := range scores {
			h.push(i, s)
		}
		res := h.results(make([]string, n))
		want := k
		if n < k {
			want = n
		}
		if len(res) != want {
			return false
		}
		// Every returned score must be >= every non-returned score.
		inRes := make(map[int]bool)
		minRes := float32(math.Inf(1))
		for _, x := range res {
			inRes[x.ID] = true
			if x.Score < minRes {
				minRes = x.Score
			}
		}
		for i, s := range scores {
			if !inRes[i] && s > minRes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	r := rng.New(7)
	const dim = 20
	ix := NewFlat(dim)
	keys := []string{"alpha", "beta", "gamma with spaces", ""}
	for i, v := range randomUnit(r, 4, dim) {
		ix.Add(v, keys[i])
	}
	path := filepath.Join(t.TempDir(), "index.vsf")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != ix.Len() || loaded.Dim() != ix.Dim() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d", loaded.Len(), loaded.Dim(), ix.Len(), ix.Dim())
	}
	for i := 0; i < ix.Len(); i++ {
		if loaded.Key(i) != ix.Key(i) {
			t.Fatalf("key %d mismatch", i)
		}
		a, b := loaded.Vector(i), ix.Vector(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("vector %d dim %d mismatch", i, j)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "garbage.vsf")
	if err := writeFile(path, []byte("not an index at all")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFlat(path); err == nil {
		t.Fatal("garbage file loaded without error")
	}
}

// VSF4 flag bits of the retired IVF-PQ format.
const (
	vsf4Residual = 1 << 0
	vsf4Rotation = 1 << 1
)

// retiredVSF4 returns a file of the retired IVF-PQ format, well formed
// for its old reader: dim=4, m=2, ksub=1, nlist=1, nprobe=1, the flags,
// count=1, key "a", the coarse centroid, the cell anchor when residual,
// the 1×4 codebook, the identity rotation when rotated, and the one
// cell's size, posting and two code bytes.
func retiredVSF4(flags uint32) []byte {
	le := binary.LittleEndian
	b := []byte("VSF4")
	for _, u := range []uint32{4, 2, 1, 1, 1, flags} {
		b = le.AppendUint32(b, u)
	}
	b = le.AppendUint64(b, 1)
	b = append(le.AppendUint32(b, 1), 'a')
	row := func(r int) {
		for c := 0; c < 4; c++ {
			var v float32
			if c == r {
				v = 1
			}
			b = le.AppendUint32(b, math.Float32bits(v))
		}
	}
	row(0) // coarse centroid
	if flags&vsf4Residual != 0 {
		row(0) // anchor
	}
	row(0) // codebook
	if flags&vsf4Rotation != 0 {
		for r := 0; r < 4; r++ {
			row(r)
		}
	}
	b = le.AppendUint32(le.AppendUint32(b, 1), 0)
	return append(b, 0, 0)
}

// retiredVSF5 returns a file of the retired HNSW format, well formed for
// its old reader: dim=4, M=2, efConstruction=efSearch=16, seed 1, max
// level 0 and entry node 0 (both biased by one), count=2, keys "a" and
// "b", both nodes on level 0, each linked to the other, and the 2×4 FP16
// code block.
func retiredVSF5() []byte {
	le := binary.LittleEndian
	b := []byte("VSF5")
	for _, u := range []uint32{4, 2, 16, 16} {
		b = le.AppendUint32(b, u)
	}
	b = le.AppendUint64(b, 1)
	b = le.AppendUint32(le.AppendUint32(b, 1), 1)
	b = le.AppendUint64(b, 2)
	b = append(le.AppendUint32(b, 1), 'a')
	b = append(le.AppendUint32(b, 1), 'b')
	b = le.AppendUint32(le.AppendUint32(b, 0), 0)
	b = le.AppendUint32(le.AppendUint32(b, 1), 1)
	b = le.AppendUint32(le.AppendUint32(b, 1), 0)
	for i := 0; i < 8; i++ {
		b = le.AppendUint16(b, 0x3c00)
	}
	return b
}

// TestLoadRejectsRetiredVSF1 pins that the retired formats are no longer
// read: a well-formed VSF2 payload behind the VSF1 magic, a well-formed
// VSF3 (standalone PQ) file, well-formed VSF4 (IVF-PQ) files, residual and
// with the OPQ rotation, and a well-formed VSF5 (HNSW) file each fail
// LoadFlat with ErrBadFormat, and no error points at a retired loader.
func TestLoadRejectsRetiredVSF1(t *testing.T) {
	dir := t.TempDir()
	le := binary.LittleEndian

	flat := NewFlat(4)
	flat.Add([]float32{1, 0, 0, 0}, "a")
	v1 := filepath.Join(dir, "v1.vsf")
	if err := flat.Save(v1); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(v1)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "VSF1")
	if err := writeFile(v1, data); err != nil {
		t.Fatal(err)
	}

	// VSF3: magic, dim=4, m=2, ksub=1, count=1, key "a", the 1×4 codebook,
	// and the row's two code bytes.
	v3data := append([]byte("VSF3"), le.AppendUint32(nil, 4)...)
	v3data = le.AppendUint32(v3data, 2)
	v3data = le.AppendUint32(v3data, 1)
	v3data = le.AppendUint64(v3data, 1)
	v3data = append(le.AppendUint32(v3data, 1), 'a')
	for _, f := range []float32{1, 0, 0, 0} {
		v3data = le.AppendUint32(v3data, math.Float32bits(f))
	}
	v3data = append(v3data, 0, 0)
	v3 := filepath.Join(dir, "v3.vsf")
	if err := writeFile(v3, v3data); err != nil {
		t.Fatal(err)
	}

	v4 := filepath.Join(dir, "v4.vsf")
	if err := writeFile(v4, retiredVSF4(vsf4Residual)); err != nil {
		t.Fatal(err)
	}
	v4rot := filepath.Join(dir, "v4rot.vsf")
	if err := writeFile(v4rot, retiredVSF4(vsf4Rotation)); err != nil {
		t.Fatal(err)
	}

	v5 := filepath.Join(dir, "v5.vsf")
	if err := writeFile(v5, retiredVSF5()); err != nil {
		t.Fatal(err)
	}

	for _, in := range []struct{ name, path string }{
		{"VSF1", v1}, {"VSF3", v3}, {"VSF4", v4}, {"VSF4-rotation", v4rot}, {"VSF5", v5},
	} {
		t.Run(in.name, func(t *testing.T) {
			_, err := LoadFlat(in.path)
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("LoadFlat(%s): %v, want ErrBadFormat", in.name, err)
			}
			for _, retired := range []string{"LoadPQ", "LoadIVFPQ", "LoadHNSW"} {
				if strings.Contains(err.Error(), retired) {
					t.Fatalf("LoadFlat(%s): error points at a retired loader: %v", in.name, err)
				}
			}
		})
	}
}

func TestLoadRejectsTruncated(t *testing.T) {
	r := rng.New(9)
	ix := NewFlat(8)
	for _, v := range randomUnit(r, 10, 8) {
		ix.Add(v, "key")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "full.vsf")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(dir, "trunc.vsf")
	if err := writeFile(trunc, data[:len(data)/2]); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFlat(trunc); err == nil {
		t.Fatal("truncated file loaded without error")
	}
}

// TestLoadErrorWrapsCause pins the %w discipline the errwrap lint rule
// enforces: a load failure must expose BOTH the format sentinel and the
// underlying I/O cause through errors.Is, so callers can distinguish
// "corrupt index" from "disk fell over" without string matching.
func TestLoadErrorWrapsCause(t *testing.T) {
	r := rng.New(11)
	ix := NewFlat(8)
	for _, v := range randomUnit(r, 3, 8) {
		ix.Add(v, "k")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "full.vsf")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := readFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut mid-way through the dim field: 4 magic bytes + 2 of 4 header
	// bytes. The loader's binary.Read sees io.ErrUnexpectedEOF and must
	// wrap it under ErrBadFormat, not flatten it into the message.
	trunc := filepath.Join(dir, "trunc.vsf")
	if err := writeFile(trunc, data[:6]); err != nil {
		t.Fatal(err)
	}
	_, err = LoadFlat(trunc)
	if err == nil {
		t.Fatal("truncated header loaded without error")
	}
	if !errors.Is(err, ErrBadFormat) {
		t.Errorf("errors.Is(err, ErrBadFormat) = false; err = %v", err)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("errors.Is(err, io.ErrUnexpectedEOF) = false; load errors must wrap the I/O cause with %%w; err = %v", err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := LoadFlat(filepath.Join(t.TempDir(), "missing.vsf")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func BenchmarkFlatSearch10k(b *testing.B) {
	r := rng.New(1)
	const dim = 384
	ix := NewFlat(dim)
	for _, v := range randomUnit(r, 10000, dim) {
		ix.Add(v, "")
	}
	q := randomUnit(r, 1, dim)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Search(q, 5)
	}
}

func BenchmarkBatchSearch(b *testing.B) {
	r := rng.New(1)
	const dim = 128
	ix := NewFlat(dim)
	for _, v := range randomUnit(r, 5000, dim) {
		ix.Add(v, "")
	}
	queries := randomUnit(r, 64, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.SearchBatch(queries, 5)
	}
}
