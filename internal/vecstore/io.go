package vecstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/f16"
)

// Binary persistence for vector indexes (the chunk and trace stores are
// saved once by the generation pipeline and loaded by every evaluation
// run). Two on-disk formats are read and written — VSF2 (contiguous FP16,
// the Flat format) and VSF5 (HNSW: construction parameters, per-node
// levels, entry point, compact adjacency lists, and the contiguous FP16
// code block). The byte-level specification and the read/write
// compatibility matrix live in docs/VSF_FORMAT.md; Load dispatches on the
// magic, LoadFlat/LoadHNSW insist on their own family, and any other magic
// (the retired VSF1, VSF3 and VSF4 included) fails with ErrBadFormat.
// IVF-PQ is built in memory from a Flat (ToIVFPQ) and never persisted.

var (
	magicV2 = [4]byte{'V', 'S', 'F', '2'}
	magicV5 = [4]byte{'V', 'S', 'F', '5'}
)

// VSF5 reader limits: an M beyond 256 or more than 65 layers is far
// outside any sane construction (randomLevel's geometric tail makes even
// level 64 astronomically unlikely) and would let a corrupt header in a
// tiny file drive enormous fixed-slot adjacency arenas.
const (
	hnswMaxM     = 1 << 8
	hnswMaxLevel = 64
)

// ErrBadFormat is returned when a persisted index fails validation.
var ErrBadFormat = errors.New("vecstore: bad index file format")

// Save writes the index to path atomically (write temp, rename) in the
// current (VSF2, contiguous) format.
func (ix *Flat) Save(path string) error {
	return saveAtomic(path, func(w io.Writer) error { return writeFlat(w, ix) })
}

// saveAtomic streams one index through write into path via a buffered
// temp-file-then-rename, so readers never observe a partial file.
func saveAtomic(path string, write func(w io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	if err = write(w); err != nil {
		f.Close()
		return err
	}
	if err = w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func writeFlat(w io.Writer, ix *Flat) error {
	if _, err := w.Write(magicV2[:]); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(ix.dim)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(ix.keys))); err != nil {
		return err
	}
	if err := writeKeys(w, ix.keys); err != nil {
		return err
	}
	return writeCodes(w, ix.codes)
}

func writeKeys(w io.Writer, keys []string) error {
	for _, k := range keys {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(k))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, k); err != nil {
			return err
		}
	}
	return nil
}

// writeCodes streams the contiguous code block as little-endian u16 through
// a fixed scratch buffer (binary.Write on a huge []uint16 would allocate a
// same-sized temporary).
func writeCodes(w io.Writer, codes []uint16) error {
	const chunk = 32 << 10 // codes per write
	buf := make([]byte, 2*chunk)
	for len(codes) > 0 {
		n := len(codes)
		if n > chunk {
			n = chunk
		}
		for i, c := range codes[:n] {
			binary.LittleEndian.PutUint16(buf[2*i:], c)
		}
		if _, err := w.Write(buf[:2*n]); err != nil {
			return err
		}
		codes = codes[n:]
	}
	return nil
}

// readCodes fills dst with little-endian u16 codes from r.
func readCodes(r io.Reader, dst []uint16) error {
	const chunk = 32 << 10
	buf := make([]byte, 2*chunk)
	for len(dst) > 0 {
		n := len(dst)
		if n > chunk {
			n = chunk
		}
		if _, err := io.ReadFull(r, buf[:2*n]); err != nil {
			return err
		}
		for i := range dst[:n] {
			dst[i] = binary.LittleEndian.Uint16(buf[2*i:])
		}
		dst = dst[n:]
	}
	return nil
}

// LoadFlat reads a Flat index previously written by Save (VSF2). Files of
// the other families are rejected; use Load or their own loader for those.
func LoadFlat(path string) (*Flat, error) {
	return loadVSF(path, func(r io.Reader, m [4]byte, remain int64) (*Flat, error) {
		switch m {
		case magicV2:
			return readFlat(r, remain)
		case magicV5:
			return nil, fmt.Errorf("%w: %s is an HNSW (VSF5) index; use Load or LoadHNSW", ErrBadFormat, path)
		}
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, m)
	})
}

// Load reads any persisted index, dispatching on the format magic: VSF2
// loads as *Flat, VSF5 as *HNSW.
func Load(path string) (Index, error) {
	return loadVSF(path, func(r io.Reader, m [4]byte, remain int64) (Index, error) {
		switch m {
		case magicV2:
			return readFlat(r, remain)
		case magicV5:
			return readHNSW(r, remain)
		}
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, m)
	})
}

// loadVSF opens path, reads its 4-byte format magic, and hands read the
// buffered stream positioned after it together with the payload byte
// budget: the file size minus the magic. The readers bound every
// header-driven allocation by this budget, so a corrupt count or dim in a
// small file fails validation instead of driving a multi-gigabyte make
// (the fuzz-found failure mode). The file is closed when read returns.
func loadVSF[T any](path string, read func(r io.Reader, m [4]byte, remain int64) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return zero, err
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return zero, fmt.Errorf("%w: %w", ErrBadFormat, err)
	}
	return read(r, m, fi.Size()-4)
}

// readFlat consumes a VSF2 stream after the magic. remain is the payload
// byte budget (file size minus magic).
func readFlat(r io.Reader, remain int64) (*Flat, error) {
	var dim uint32
	if err := binary.Read(r, binary.LittleEndian, &dim); err != nil {
		return nil, fmt.Errorf("%w: dim: %w", ErrBadFormat, err)
	}
	if dim == 0 || dim > 1<<16 {
		return nil, fmt.Errorf("%w: implausible dim %d", ErrBadFormat, dim)
	}
	var count uint64
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: count: %w", ErrBadFormat, err)
	}
	if count > (1<<31)/uint64(dim) {
		return nil, fmt.Errorf("%w: implausible count %d", ErrBadFormat, count)
	}
	// Every record costs at least a 4-byte key length plus dim FP16 codes,
	// so a count the file cannot physically back fails here instead of
	// sizing allocations from 12 corrupt header bytes.
	remain -= 12
	if need := int64(count) * int64(4+2*dim); need > remain {
		return nil, fmt.Errorf("%w: count %d needs >= %d payload bytes, file has %d", ErrBadFormat, count, need, remain)
	}
	ix := NewFlat(int(dim))
	ix.keys = make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		key, err := readKey(r, i)
		if err != nil {
			return nil, err
		}
		ix.keys = append(ix.keys, key)
	}
	ix.codes = make([]uint16, count*uint64(dim))
	if err := readCodes(r, ix.codes); err != nil {
		return nil, fmt.Errorf("%w: code block: %w", ErrBadFormat, err)
	}
	ix.deriveFirstPass()
	return ix, nil
}

func readKey(r io.Reader, i uint64) (string, error) {
	var klen uint32
	if err := binary.Read(r, binary.LittleEndian, &klen); err != nil {
		return "", fmt.Errorf("%w: key len at %d: %w", ErrBadFormat, i, err)
	}
	if klen > 1<<20 {
		return "", fmt.Errorf("%w: implausible key length %d", ErrBadFormat, klen)
	}
	key := make([]byte, klen)
	if _, err := io.ReadFull(r, key); err != nil {
		return "", fmt.Errorf("%w: key at %d: %w", ErrBadFormat, i, err)
	}
	return string(key), nil
}

// ToIVFPQ converts a Flat index into a trained IVF-PQ index with the given
// configuration (Dim is taken from the source index).
func (ix *Flat) ToIVFPQ(cfg IVFPQConfig) *IVFPQ {
	cfg.Dim = ix.dim
	ivfpq := NewIVFPQ(cfg)
	ivfpq.staged = append(ivfpq.staged, ix.codes...)
	ivfpq.keys = append(ivfpq.keys, ix.keys...)
	ivfpq.Train()
	return ivfpq
}

// ToHNSW converts a Flat index into an HNSW graph with the given
// configuration (Dim is taken from the source index). Unlike the other
// conversions the graph must be built incrementally, so each stored FP16
// row is decoded and re-inserted; encode∘decode is the identity on FP16
// codes, so the converted index holds the identical contiguous code
// block.
func (ix *Flat) ToHNSW(cfg HNSWConfig) *HNSW {
	cfg.Dim = ix.dim
	h := NewHNSW(cfg)
	buf := make([]float32, ix.dim)
	for i := range ix.keys {
		f16.DecodeInto(buf, ix.codes[i*ix.dim:(i+1)*ix.dim])
		h.Add(buf, ix.keys[i])
	}
	return h
}

// Save writes the HNSW index to path atomically in the VSF5 format
// (construction parameters, per-node levels, entry point, compact
// adjacency lists, and the contiguous FP16 code block; see
// docs/VSF_FORMAT.md). All graph state round-trips without any
// reconstruction: a loaded index searches bit-identically to the saved
// one and continues Add exactly as if it had never been saved. Save
// panics if the graph exceeds the format's reader limits (M > 256 or more
// than 65 layers), which no NewHNSW-built index of sane size does.
func (h *HNSW) Save(path string) error {
	if h.m > hnswMaxM || h.maxLv > hnswMaxLevel {
		panic(fmt.Sprintf("vecstore: HNSW Save with M=%d maxLevel=%d exceeds VSF5 limits", h.m, h.maxLv))
	}
	return saveAtomic(path, func(w io.Writer) error { return writeHNSW(w, h) })
}

func writeHNSW(w io.Writer, h *HNSW) error {
	if _, err := w.Write(magicV5[:]); err != nil {
		return err
	}
	hdr := []uint32{uint32(h.dim), uint32(h.m), uint32(h.efConstruction), uint32(h.efSearch)}
	for _, v := range hdr {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, h.seed); err != nil {
		return err
	}
	// maxLv and entry are biased by one so the empty index (-1) stores as 0.
	for _, v := range []uint32{uint32(h.maxLv + 1), uint32(h.entry + 1)} {
		if err := binary.Write(w, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(h.keys))); err != nil {
		return err
	}
	if err := writeKeys(w, h.keys); err != nil {
		return err
	}
	for _, lv := range h.levels {
		if err := binary.Write(w, binary.LittleEndian, uint32(lv)); err != nil {
			return err
		}
	}
	// Adjacency is stored compactly — degree plus live ids per node per
	// level, lowest level first — and the fixed-slot arenas are rebuilt at
	// load, so the file never pays for empty slots.
	var buf []byte
	for id := range h.keys {
		for lv := 0; lv <= h.levels[id]; lv++ {
			ns := h.neighbours(id, lv)
			need := 4 * (len(ns) + 1)
			if cap(buf) < need {
				buf = make([]byte, need)
			}
			b := buf[:need]
			binary.LittleEndian.PutUint32(b, uint32(len(ns)))
			for j, n := range ns {
				binary.LittleEndian.PutUint32(b[4+4*j:], uint32(n))
			}
			if _, err := w.Write(b); err != nil {
				return err
			}
		}
	}
	return writeCodes(w, h.codes)
}

// LoadHNSW reads an HNSW index previously written by HNSW.Save (VSF5).
// Other families are rejected; use Load for magic dispatch.
func LoadHNSW(path string) (*HNSW, error) {
	return loadVSF(path, func(r io.Reader, m [4]byte, remain int64) (*HNSW, error) {
		if m != magicV5 {
			return nil, fmt.Errorf("%w: %s is not an HNSW (VSF5) index (magic %q); use Load", ErrBadFormat, path, m)
		}
		return readHNSW(r, remain)
	})
}

// readHNSW consumes a VSF5 stream after the magic. The compact adjacency
// lists are re-expanded into the fixed-slot arenas, and the seed's level
// stream is replayed to where construction left it, so a loaded index
// both searches bit-identically to the saved one and continues Add
// exactly as if it had never been saved. remain is the payload byte
// budget (file size minus magic).
func readHNSW(r io.Reader, remain int64) (*HNSW, error) {
	var dim, m, efc, efs uint32
	for _, p := range []*uint32{&dim, &m, &efc, &efs} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: HNSW header: %w", ErrBadFormat, err)
		}
	}
	if dim == 0 || dim > 1<<16 {
		return nil, fmt.Errorf("%w: implausible dim %d", ErrBadFormat, dim)
	}
	if m == 0 || m > hnswMaxM {
		return nil, fmt.Errorf("%w: implausible HNSW M %d", ErrBadFormat, m)
	}
	if efc == 0 || efc > 1<<20 || efs == 0 || efs > 1<<20 {
		return nil, fmt.Errorf("%w: implausible HNSW ef parameters (%d, %d)", ErrBadFormat, efc, efs)
	}
	var seed uint64
	if err := binary.Read(r, binary.LittleEndian, &seed); err != nil {
		return nil, fmt.Errorf("%w: HNSW seed: %w", ErrBadFormat, err)
	}
	var maxLvP, entryP uint32
	for _, p := range []*uint32{&maxLvP, &entryP} {
		if err := binary.Read(r, binary.LittleEndian, p); err != nil {
			return nil, fmt.Errorf("%w: HNSW entry: %w", ErrBadFormat, err)
		}
	}
	if maxLvP > hnswMaxLevel+1 {
		return nil, fmt.Errorf("%w: implausible HNSW max level %d", ErrBadFormat, maxLvP)
	}
	var count uint64
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("%w: count: %w", ErrBadFormat, err)
	}
	if count > (1<<31)/uint64(dim) {
		return nil, fmt.Errorf("%w: implausible count %d", ErrBadFormat, count)
	}
	if count == 0 && (maxLvP != 0 || entryP != 0) {
		return nil, fmt.Errorf("%w: empty HNSW with entry point %d/%d", ErrBadFormat, entryP, maxLvP)
	}
	if count > 0 && (entryP == 0 || maxLvP == 0 || uint64(entryP-1) >= count) {
		return nil, fmt.Errorf("%w: HNSW entry %d outside count %d", ErrBadFormat, entryP, count)
	}
	// Every record costs at least a key length, a level and a level-0
	// degree prefix (4 bytes each) plus dim FP16 codes, so a count the
	// file cannot physically back fails before anything below is sized.
	remain -= 40
	minRecords := int64(count) * int64(12+2*dim)
	if minRecords > remain {
		return nil, fmt.Errorf("%w: count %d needs >= %d payload bytes, file has %d", ErrBadFormat, count, minRecords, remain)
	}
	h := NewHNSW(HNSWConfig{
		Dim: int(dim), M: int(m),
		EfConstruction: int(efc), EfSearch: int(efs), Seed: seed,
	})
	h.maxLv = int(maxLvP) - 1
	h.entry = int(entryP) - 1
	h.keys = make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		key, err := readKey(r, i)
		if err != nil {
			return nil, err
		}
		h.keys = append(h.keys, key)
	}
	// Per-node levels bound the upper arena; each level >= 1 also costs at
	// least its 4-byte degree prefix beyond the per-record minimum already
	// subtracted, which bounds the level sum by the byte budget.
	h.levels = make([]int, count)
	var upperLevels int64
	maxSeen := -1
	for i := range h.levels {
		var lv uint32
		if err := binary.Read(r, binary.LittleEndian, &lv); err != nil {
			return nil, fmt.Errorf("%w: node %d level: %w", ErrBadFormat, i, err)
		}
		if int(lv) > h.maxLv {
			return nil, fmt.Errorf("%w: node %d level %d above max %d", ErrBadFormat, i, lv, h.maxLv)
		}
		if int(lv) > maxSeen {
			maxSeen = int(lv)
		}
		h.levels[i] = int(lv)
		upperLevels += int64(lv)
	}
	if count > 0 && (maxSeen != h.maxLv || h.levels[h.entry] != h.maxLv) {
		return nil, fmt.Errorf("%w: entry level %d inconsistent with max level %d", ErrBadFormat, maxSeen, h.maxLv)
	}
	if 4*upperLevels > remain-minRecords {
		return nil, fmt.Errorf("%w: %d upper levels need %d bytes beyond the record minimum, file has %d", ErrBadFormat, upperLevels, 4*upperLevels, remain-minRecords)
	}
	h.links0 = make([]int32, count*uint64(2*m+1))
	h.upperBase = make([]int32, count)
	h.upper = make([]int32, upperLevels*int64(m+1))
	var upOff int64
	for i := range h.levels {
		if lv := h.levels[i]; lv >= 1 {
			h.upperBase[i] = int32(upOff)
			upOff += int64(lv) * int64(m+1)
		} else {
			h.upperBase[i] = -1
		}
	}
	var nbuf []byte
	for id := 0; id < int(count); id++ {
		for lv := 0; lv <= h.levels[id]; lv++ {
			var deg uint32
			if err := binary.Read(r, binary.LittleEndian, &deg); err != nil {
				return nil, fmt.Errorf("%w: node %d level %d degree: %w", ErrBadFormat, id, lv, err)
			}
			if int(deg) > h.maxLinks(lv) {
				return nil, fmt.Errorf("%w: node %d level %d degree %d exceeds slot budget %d", ErrBadFormat, id, lv, deg, h.maxLinks(lv))
			}
			if cap(nbuf) < int(4*deg) {
				nbuf = make([]byte, 4*deg)
			}
			b := nbuf[:4*deg]
			if _, err := io.ReadFull(r, b); err != nil {
				return nil, fmt.Errorf("%w: node %d level %d links: %w", ErrBadFormat, id, lv, err)
			}
			blk := h.slotBlock(id, lv)
			blk[0] = int32(deg)
			for j := 0; j < int(deg); j++ {
				n := binary.LittleEndian.Uint32(b[4*j:])
				if uint64(n) >= count {
					return nil, fmt.Errorf("%w: node %d level %d links to %d outside count %d", ErrBadFormat, id, lv, n, count)
				}
				// A neighbour must own a slot block on this level, or the
				// traversal would index past its arena segment.
				if lv >= 1 && h.levels[n] < lv {
					return nil, fmt.Errorf("%w: node %d level %d links to %d whose top level is %d", ErrBadFormat, id, lv, n, h.levels[n])
				}
				blk[1+j] = int32(n)
			}
		}
	}
	h.codes = make([]uint16, count*uint64(dim))
	if err := readCodes(r, h.codes); err != nil {
		return nil, fmt.Errorf("%w: code block: %w", ErrBadFormat, err)
	}
	// Replay the seed's level stream to where construction left it
	// (including zero-redraws), so post-load Adds draw exactly the levels
	// a never-saved index would.
	for range h.levels {
		h.randomLevel()
	}
	return h, nil
}
