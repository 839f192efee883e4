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

// Binary persistence for the exact index (the chunk and trace stores are
// saved once by the generation pipeline and loaded by every evaluation
// run). One on-disk format is read and written: VSF2, contiguous FP16
// codes behind a dim/count header and the keys. The byte-level
// specification lives in docs/VSF_FORMAT.md; any other magic (the retired
// VSF1, VSF3, VSF4 and VSF5 included) fails with ErrBadFormat. HNSW and
// IVF-PQ are built in memory from a Flat (ToHNSW, ToIVFPQ) and never
// persisted.

var magicV2 = [4]byte{'V', 'S', 'F', '2'}

// ErrBadFormat is returned when a persisted index fails validation.
var ErrBadFormat = errors.New("vecstore: bad index file format")

// Save writes the index to path in the VSF2 format, atomically: it streams
// through a buffered temp file and renames it into place, so readers never
// observe a partial file.
func (ix *Flat) Save(path string) (err error) {
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
	if err = writeFlat(w, ix); err != nil {
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
	for _, k := range ix.keys {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(k))); err != nil {
			return err
		}
		if _, err := io.WriteString(w, k); err != nil {
			return err
		}
	}
	return writeCodes(w, ix.codes)
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

// LoadFlat reads a Flat index previously written by Save (VSF2). The
// reader bounds every header-driven allocation by the file size, so a
// corrupt count or dim in a small file fails validation instead of driving
// a multi-gigabyte make (the fuzz-found failure mode).
func LoadFlat(path string) (*Flat, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	r := bufio.NewReaderSize(f, 1<<20)
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadFormat, err)
	}
	if m != magicV2 {
		return nil, fmt.Errorf("%w: magic %q", ErrBadFormat, m)
	}
	return readFlat(r, fi.Size()-4)
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
	keys := make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		key, err := readKey(r, i)
		if err != nil {
			return nil, err
		}
		keys = append(keys, key)
	}
	codes := make([]uint16, count*uint64(dim))
	if err := readCodes(r, codes); err != nil {
		return nil, fmt.Errorf("%w: code block: %w", ErrBadFormat, err)
	}
	return NewFlatFromCodes(int(dim), codes, keys), nil
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
