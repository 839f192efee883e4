package vecstore

import (
	"math"
	"slices"
	"testing"

	"repro/internal/f16"
	"repro/internal/rng"
)

// The int8 first pass must leave every search bit-identical to the
// reference scalar scan: same ids, same score bits, same order. These
// tests drive it with the data that stresses the bound — near-duplicate
// clusters and exact ties, rows and queries that quantize exactly (where
// only γ separates the estimate from the FP16 score), ±0, subnormals,
// FP16-saturated and NaN rows — on Flat, the memtable and Live across a
// compaction.

// checkSameBits is checkSameResults with scores compared by bit pattern,
// every NaN equal to every NaN.
func checkSameBits(t testing.TB, label string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		sameScore := math.Float32bits(g.Score) == math.Float32bits(w.Score) || g.Score != g.Score && w.Score != w.Score
		if g.ID != w.ID || g.Key != w.Key || !sameScore {
			t.Fatalf("%s: rank %d: got {id %d score %x}, want {id %d score %x}",
				label, i, g.ID, math.Float32bits(g.Score), w.ID, math.Float32bits(w.Score))
		}
	}
}

// latticeVector returns c·s for int8 codes c holding a ±127, with s an odd
// multiple of a power of two: the vector quantizes exactly (e = 0) as an
// FP16 row and as a float32 query.
func latticeVector(r *rng.Source, dim int) (v []float32, s float32) {
	s = float32(2*r.Intn(8)+1) * float32(math.Ldexp(1, -7-r.Intn(4)))
	v = make([]float32, dim)
	for j := range v {
		v[j] = float32(r.Intn(255)-127) * s
	}
	v[r.Intn(dim)] = 127 * s
	return v, s
}

// firstPassRows builds n rows of one data family.
func firstPassRows(r *rng.Source, family string, n, dim int) [][]float32 {
	out := make([][]float32, 0, n)
	switch family {
	case "unit":
		return randomUnit(r, n, dim)
	case "clusters":
		// Near-duplicates around a few centres, with exact duplicates.
		centres := randomUnit(r, 3, dim)
		for len(out) < n {
			v := slices.Clone(centres[r.Intn(len(centres))])
			if !r.Bool(0.2) {
				for j := range v {
					v[j] += float32(r.Normal(0, 1e-3))
				}
			}
			out = append(out, v)
		}
	case "lattice":
		// Exactly quantizable rows, each cluster's variants differing from
		// its base in a few codes by ±1.
		var base []float32
		var s float32
		for len(out) < n {
			if len(out)%40 == 0 {
				base, s = latticeVector(r, dim)
			}
			v := slices.Clone(base)
			for range 1 + r.Intn(3) {
				j := r.Intn(dim)
				if c := math.Round(float64(v[j] / s)); c > -127 && c < 127 {
					v[j] += float32(2*r.Intn(2)-1) * s
				}
			}
			out = append(out, v)
		}
	case "special":
		// ±0, FP16 subnormals, FP16-saturated (±Inf) and NaN rows among
		// ordinary ones.
		for len(out) < n {
			v := make([]float32, dim)
			switch r.Intn(6) {
			case 0:
				for j := range v {
					v[j] = float32(math.Copysign(0, float64(r.Intn(2)-1)))
				}
			case 1:
				for j := range v {
					v[j] = float32(r.Normal(0, 1e-5)) // FP16 subnormal range
				}
			case 2:
				copy(v, randomUnit(r, 1, dim)[0])
				v[r.Intn(dim)] = float32(1e6 * float64(2*r.Intn(2)-1)) // saturates to ±Inf
			case 3:
				copy(v, randomUnit(r, 1, dim)[0])
				v[r.Intn(dim)] = float32(math.NaN())
			default:
				copy(v, randomUnit(r, 1, dim)[0])
			}
			out = append(out, v)
		}
	}
	return out
}

// firstPassQueries builds nq queries against rows: random unit vectors,
// lattice vectors, stored rows (exact ties with them), rows with ±0 and
// float32-subnormal components, and the zero query. A stored row with a
// non-finite value is a query only in the last slot of a 64-query batch,
// so smaller batches keep the first pass and that one takes the plain
// path.
func firstPassQueries(r *rng.Source, rows [][]float32, nq, dim int) [][]float32 {
	qs := make([][]float32, nq)
	for i := range qs {
		switch i % 5 {
		case 0:
			qs[i] = randomUnit(r, 1, dim)[0]
		case 1:
			qs[i], _ = latticeVector(r, dim)
		case 2:
			qs[i] = randomUnit(r, 1, dim)[0] // if no finite row turns up
			for range 8 {
				if q := f16.Decode(f16.Encode(rows[r.Intn(len(rows))])); finite(q) || i == 63 {
					qs[i] = q
					break
				}
			}
		case 3:
			q := randomUnit(r, 1, dim)[0]
			for j := range q {
				if r.Bool(0.3) {
					q[j] = [...]float32{0, float32(math.Copysign(0, -1)), 1e-40, -3e-42}[r.Intn(4)]
				}
			}
			qs[i] = q
		default:
			if i == 4 {
				qs[i] = make([]float32, dim)
			} else {
				qs[i] = randomUnit(r, 1, dim)[0]
			}
		}
	}
	return qs
}

func finite(v []float32) bool {
	for _, x := range v {
		if x-x != 0 {
			return false
		}
	}
	return true
}

// TestFirstPassMatchesReference is the property test: every family, dim,
// k and batch size, on Flat, the memtable and Live across a compaction,
// single queries and batches, against the reference scan of a Flat over
// the same vectors.
func TestFirstPassMatchesReference(t *testing.T) {
	dims := []int{1, 7, 31, 384}
	families := []string{"unit", "clusters", "lattice", "special"}
	for _, dim := range dims {
		for fi, family := range families {
			r := rng.New(uint64(1000*dim + fi))
			n := 700
			if dim < 64 {
				n = segmentMinRows + 5 // batches take the segment-parallel path
			}
			rows := firstPassRows(r, family, n, dim)
			all := firstPassQueries(r, rows, 64, dim)
			ref, mt := NewFlat(dim), NewMemtable(dim)
			for i, v := range rows {
				ref.Add(v, itoaTest(i))
				mt.Add(v, itoaTest(i))
			}
			live := liveAcrossCompaction(t, rows, dim)
			for _, k := range []int{1, 10, n} {
				want := make([][]Result, len(all))
				for qi, q := range all {
					want[qi] = ref.searchReference(q, k)
				}
				label := family + " dim=" + itoaTest(dim) + " k=" + itoaTest(k)
				for _, ix := range []Index{ref, mt, live} {
					for qi := 0; qi < len(all); qi += 7 {
						checkSameBits(t, label+" single", ix.Search(all[qi], k), want[qi])
					}
					for _, nq := range []int{1, 2, 3, 17, 64} {
						if k == n && nq > 3 {
							break // k ≥ n takes the plain path; keep it cheap
						}
						got := ix.SearchBatch(all[:nq], k)
						for qi := range got {
							checkSameBits(t, label+" batch="+itoaTest(nq), got[qi], want[qi])
						}
					}
				}
			}
		}
	}
}

// liveAcrossCompaction builds a Live over rows: a Flat base holding the
// first third, the rest added to the memtable, then the middle third
// compacted into the base, so the result spans a base grown by compaction
// and a rotated memtable.
func liveAcrossCompaction(t *testing.T, rows [][]float32, dim int) *Live {
	t.Helper()
	third := len(rows) / 3
	base := NewFlat(dim)
	for i, v := range rows[:third] {
		base.Add(v, itoaTest(i))
	}
	lv := NewLive(base, nil)
	for i, v := range rows[third:] {
		lv.Add(v, itoaTest(third+i))
	}
	nb, err := lv.CompactBase(third)
	if err != nil {
		t.Fatal(err)
	}
	return lv.Rotate(nb, third)
}

// TestFirstPassRerankSet pins which rows the rerank rescores: exactly the
// rows whose upper bound is ≥ τ, the k-th largest lower bound. With zero
// dots and a zero bound every row's bounds are 0, so each upper bound equals
// τ and every row must be rescored (a tie at τ can be in the top-k on id);
// with distinct dots a row whose upper bound falls between the (k+1)-th
// and the k-th lower bound must not be.
func TestFirstPassRerankSet(t *testing.T) {
	unit := []rowBound{{scale: 1}, {scale: 1}, {scale: 1}}
	c := queryCoef{scale: 1}
	for _, tc := range []struct {
		dots []int32
		k    int
		want []int32
	}{
		{[]int32{0, 0, 0}, 1, []int32{0, 1, 2}},
		{[]int32{0, 0, 0}, 2, []int32{0, 1, 2}},
		{[]int32{10, 5, 0}, 1, []int32{0}},
		{[]int32{5, 10, 0}, 1, []int32{1}},
		{[]int32{10, 5, 0}, 2, []int32{0, 1}},
	} {
		var p passState
		p.reset(tc.k)
		p.bound(tc.dots, unit, c, 0)
		if got := p.survivors(nil); !slices.Equal(got, tc.want) {
			t.Fatalf("dots %v k=%d: rescored rows %v, want %v", tc.dots, tc.k, got, tc.want)
		}
	}
}

// TestFirstPassBoundHolds checks the bound itself on every family: each
// row's FP16 score lies inside its first-pass interval.
func TestFirstPassBoundHolds(t *testing.T) {
	for fi, family := range []string{"unit", "clusters", "lattice", "special"} {
		for _, dim := range []int{1, 7, 31, 384} {
			r := rng.New(uint64(77*dim + fi))
			rows := firstPassRows(r, family, 300, dim)
			ix := NewFlat(dim)
			for i, v := range rows {
				ix.Add(v, itoaTest(i))
			}
			qb := prepQueries(slices.Concat(firstPassQueries(r, rows, 10, dim)...), dim, true)
			if qb.plain {
				t.Fatalf("%s dim=%d: batch of finite queries marked plain", family, dim)
			}
			dots := make([]int32, ix.Len())
			for qi := range 10 {
				q := qb.fp[qi*dim : (qi+1)*dim]
				f16.DotI8Rows(dots, ix.i8, qb.i8[qi*dim:(qi+1)*dim])
				for id, d := range dots {
					p := passState{k: 1}
					p.bound([]int32{d}, ix.bnd[id:id+1], qb.coef[qi], 0)
					s := float64(f16.Dot(ix.row(id), q))
					if s != s {
						continue // NaN ranks last; its row is always rescored
					}
					lo := math.Inf(-1) // a non-finite row's bound never enters the heap
					if len(p.lows) > 0 {
						lo = p.lows[0]
					}
					if hi := p.cands[0].hi; s < lo || s > hi {
						t.Fatalf("%s dim=%d query %d row %d: score %g outside [%g, %g]", family, dim, qi, id, s, lo, hi)
					}
				}
			}
			putQueryBatch(qb)
		}
	}
}

// TestFirstPassPlainFallbacks covers the batches that skip the pass: a
// non-finite query component and a norm past 2⁶⁴.
func TestFirstPassPlainFallbacks(t *testing.T) {
	const dim = 16
	r := rng.New(3)
	rows := firstPassRows(r, "unit", 300, dim)
	ix := NewFlat(dim)
	for i, v := range rows {
		ix.Add(v, itoaTest(i))
	}
	inf, huge, ok := randomUnit(r, 1, dim)[0], randomUnit(r, 1, dim)[0], randomUnit(r, 1, dim)[0]
	inf[3] = float32(math.Inf(1))
	for j := range huge {
		huge[j] *= 1e30
	}
	for _, q := range [][]float32{inf, huge} {
		qb := prepQueries(slices.Concat(ok, q), dim, true)
		if !qb.plain {
			t.Fatalf("query %v: batch not marked plain", q[:4])
		}
		putQueryBatch(qb)
		batch := ix.SearchBatch([][]float32{ok, q}, 5)
		checkSameBits(t, "plain batch", batch[0], ix.searchReference(ok, 5))
		checkSameBits(t, "plain batch", batch[1], ix.searchReference(q, 5))
	}
}

// FuzzFirstPassMatchesReference widens the property test: fuzzed FP16 codes
// (every pattern, NaN and ±Inf included) fill the rows cyclically, and a
// fuzzed dim, row count, k and batch size pick the shape; every search must
// equal the reference scan in ids and score bits.
func FuzzFirstPassMatchesReference(f *testing.F) {
	specials := []byte{0x00, 0x00, 0x00, 0x80, 0x01, 0x00, 0xff, 0x03, 0x00, 0x7c, 0x00, 0xfc, 0x01, 0x7e, 0xff, 0x7b, 0x00, 0x3c}
	for _, c := range []struct {
		dim, rows, k, nq int
	}{{1, 200, 1, 1}, {7, 150, 10, 2}, {31, 90, 3, 3}, {384, 70, 10, 17}, {16, 300, 299, 64}} {
		f.Add(specials, uint16(c.dim), uint16(c.rows), uint16(c.k), uint8(c.nq), uint64(c.dim))
	}
	f.Fuzz(func(t *testing.T, codes []byte, dim, nrows, k uint16, nq uint8, seed uint64) {
		d, n := 1+int(dim)%400, 1+int(nrows)%400
		kk, b := 1+int(k)%(n+2), 1+int(nq)%64
		r := rng.New(seed)
		rows := make([][]float32, n)
		for i := range rows {
			h := make([]uint16, d)
			for j := range h {
				if len(codes) >= 2 {
					at := 2 * (i*d + j) % (len(codes) &^ 1)
					h[j] = uint16(codes[at]) | uint16(codes[at+1])<<8
				} else {
					h[j] = uint16(r.Uint64())
				}
			}
			rows[i] = f16.Decode(h)
		}
		ix := NewFlat(d)
		for i, v := range rows {
			ix.Add(v, itoaTest(i))
		}
		queries := firstPassQueries(r, rows, b, d)
		got := ix.SearchBatch(queries, kk)
		for qi, q := range queries {
			want := ix.searchReference(q, kk)
			checkSameBits(t, "fuzz batch", got[qi], want)
			if qi == 0 {
				checkSameBits(t, "fuzz single", ix.Search(q, kk), want)
			}
		}
	})
}

// A Flat wrapped around one FP16 block by NewFlatFromCodes must hold and
// answer exactly what a Flat built row by row through Add does: at 0 and 1
// rows, at row counts off the parallel derivation's block size, and with
// non-finite rows.
func TestNewFlatFromCodesMatchesAdd(t *testing.T) {
	const dim = 24
	r := rng.New(47)
	queries := randomUnit(r, 6, dim)
	for _, n := range []int{0, 1, 7, deriveBlockRows + 3, 2*deriveBlockRows + 1} {
		rows := randomUnit(r, n, dim)
		if n >= 7 {
			rows[n/2][3] = float32(math.NaN())
			rows[n-1][0] = float32(math.Inf(1))
		}
		keys := make([]string, n)
		byRow := NewFlat(dim)
		var codes []uint16
		for i, v := range rows {
			keys[i] = itoaTest(i)
			byRow.Add(v, keys[i])
			codes = f16.AppendEncoded(codes, v)
		}
		bulk := NewFlatFromCodes(dim, codes, slices.Clone(keys))
		switch {
		case !slices.Equal(bulk.codes, byRow.codes):
			t.Fatalf("n=%d: codes differ", n)
		case !slices.Equal(bulk.keys, byRow.keys):
			t.Fatalf("n=%d: keys differ", n)
		case !slices.Equal(bulk.i8, byRow.i8):
			t.Fatalf("n=%d: int8 codes differ", n)
		case !slices.Equal(bulk.bnd, byRow.bnd):
			t.Fatalf("n=%d: row bounds differ", n)
		case bulk.MemoryBytes() != byRow.MemoryBytes():
			t.Fatalf("n=%d: MemoryBytes %d, by row %d", n, bulk.MemoryBytes(), byRow.MemoryBytes())
		}
		for _, k := range []int{1, 10} {
			got, want := bulk.SearchBatch(queries, k), byRow.SearchBatch(queries, k)
			for qi, q := range queries {
				label := "n=" + itoaTest(n) + " k=" + itoaTest(k) + " q" + itoaTest(qi)
				checkSameBits(t, label+" Search", bulk.Search(q, k), byRow.Search(q, k))
				checkSameBits(t, label+" SearchBatch", got[qi], want[qi])
			}
		}
	}
}

func TestNewFlatFromCodesRejectsRaggedBlock(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on a block that is not rows × dim")
		}
	}()
	NewFlatFromCodes(4, make([]uint16, 7), []string{"a", "b"})
}
