package vecstore

import (
	"math"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/f16"
	"repro/internal/pipeline"
)

// The int8 first pass: a scan that is exact by proof at a fraction of the
// FP16 kernel's cost. Every FP16 row x̂ of Flat and the memtable carries
// int8 codes c_x with a per-row scale s_x, so x̂ = x̃ + e_x with
// x̃ = s_x·c_x; a query q is split the same way once per batch. The
// integer dot c_q·c_x is exact, and
//
//	Dot(x̂,q) − s_q·s_x·(c_q·c_x) = x̃·e_q + e_x·q + (Dot(x̂,q) − x̂·q)
//
// bounds every row's FP16 score within ±(‖q‖‖e_x‖ + ‖e_q‖‖x̃‖ + γ) of the
// int8 estimate. The last term is f16.Dot's own float32 rounding: each
// product rounds once and each add once, and no element passes through
// more than d+8 roundings (one product, at most ⌈d/4⌉+3 lane adds, three
// lane folds), so by the standard summation bound it is at most
// γ_m·Σ|x̂_j q_j| ≤ γ_m·‖q‖(‖x̃‖+‖e_x‖) with m = d+8, γ_m = m·u/(1−m·u),
// u = 2⁻²⁴, plus (d+8)·2⁻¹⁴⁹ for products that underflow into float32's
// subnormal range. The norms are rounded up when stored, and the bound is
// evaluated in float64 with a 2⁻⁴⁸ relative pad that covers its own
// rounding and the rescale's.
//
// A segment keeps, per query, τ = the k-th largest lower bound. At least k
// rows score ≥ τ, so every row of the exact top-k has an upper bound ≥ τ;
// only those rows are rescored by f16.DotRows and pushed into the top-k
// heap, whose total order makes the result the exact scan's, ids, scores
// and tie order included. The edge cases all fall back on the plain scan:
// a row with a non-finite FP16 value gets the bound +Inf (scale 0 and
// ‖e_x‖ = +Inf) and is always rescored; a batch holding a query with a
// non-finite component, a norm past 2⁶⁴ (where float32 products could
// overflow) or more than maxFirstPassDim dimensions (where the int32 dot
// could wrap) skips the pass; so does a segment with no more rows than k.

// maxFirstPassDim is the widest vector the first pass takes: an int8 dot
// of up to 65 536 terms of at most 127² stays inside int32.
const maxFirstPassDim = 1 << 16

// rowBound is one row's first-pass state beside its int8 codes.
type rowBound struct {
	scale float32 // s_x; 0 for an all-zero or non-finite row
	enorm float32 // ‖e_x‖ rounded up; +Inf marks a non-finite row
	norm  float32 // ‖x̃‖ = s_x‖c_x‖ rounded up
}

// firstPassBytes is the derived state one row carries for the first pass:
// dim int8 codes and its rowBound.
func firstPassBytes(dim int) int { return dim + int(unsafe.Sizeof(rowBound{})) }

// quantize splits v into s·c + e with s = maxAbs/127, maxAbs being v's
// largest magnitude, and c = round(v/s) in [-127, 127]; it writes c into
// dst and returns s with upper bounds on ‖e‖ and ‖s·c‖. Any s and any c
// would do: e is computed from the s and c actually used (exactly, as the
// difference of two nearby float64 multiples of ulp(s)).
func quantize[T int8 | int16](dst []T, v []float32, maxAbs float64) (s float32, enorm, cnorm float64) {
	s = float32(maxAbs / 127)
	var inv float64
	if s != 0 {
		inv = 1 / float64(s)
	}
	var e2 float64
	var c2 int64
	for j, x := range v {
		xf := float64(x)
		t := xf * inv
		c := min(max(int32(t+math.Copysign(0.5, t)), -127), 127)
		dst[j] = T(c)
		e := xf - float64(s)*float64(c)
		e2 += e * e
		c2 += int64(c * c)
	}
	p := pad(len(v))
	return s, math.Sqrt(e2) * p, float64(s) * math.Sqrt(float64(c2)) * p
}

// pad covers the rounding of a norm computed in float64 over d terms: the
// sum of squares is within (d+1)·2⁻⁵³ of exact, the square root and a
// product add 2⁻⁵³ each.
func pad(d int) float64 { return 1 + float64(d+4)*0x1p-52 }

// up32 rounds x up to a float32.
func up32(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// appendFirstPass derives the first-pass state of every row of the FP16
// codes and appends it to i8 and bnd; a large block (a load, a view) is
// derived in parallel blocks of deriveBlockRows.
func appendFirstPass(i8 []int8, bnd []rowBound, codes []uint16, dim int) ([]int8, []rowBound) {
	n, at, bt := len(codes)/dim, len(i8), len(bnd)
	i8 = slices.Grow(i8, n*dim)[:at+n*dim]
	bnd = slices.Grow(bnd, n)[:bt+n]
	pipeline.For((n+deriveBlockRows-1)/deriveBlockRows, 0, func(b int) {
		lo, hi := b*deriveBlockRows, min((b+1)*deriveBlockRows, n)
		deriveRows(i8[at+lo*dim:at+hi*dim], bnd[bt+lo:bt+hi], codes[lo*dim:hi*dim], dim)
	})
	return i8, bnd
}

// deriveBlockRows is the unit of parallel derivation: about a millisecond
// of work at dim 384.
const deriveBlockRows = 512

// deriveRows fills i8 and bnd with the first-pass state of the FP16 rows
// in codes.
func deriveRows(i8 []int8, bnd []rowBound, codes []uint16, dim int) {
	var stack [512]float32
	buf := stack[:]
	if dim > len(stack) {
		buf = make([]float32, dim)
	}
	buf = buf[:dim]
	for r := range bnd {
		row, c := codes[r*dim:(r+1)*dim], i8[r*dim:(r+1)*dim]
		// FP16 magnitudes order as their bit patterns (the running max is
		// kept without a branch); an exponent of all ones is ±Inf or NaN.
		var top int32
		for j, h := range row {
			buf[j] = f16.ToFloat32(h)
			d := int32(h&0x7fff) - top
			top += d &^ (d >> 31)
		}
		if top >= 0x7c00 {
			clear(c)
			bnd[r] = rowBound{enorm: float32(math.Inf(1))}
			continue
		}
		s, en, cn := quantize(c, buf, float64(f16.ToFloat32(uint16(top))))
		bnd[r] = rowBound{scale: s, enorm: up32(en), norm: up32(cn)}
	}
}

// queryBatch is a packed query batch (query qi at fp[qi*dim:(qi+1)*dim])
// with its first-pass state: query qi's int8 codes widened to int16 at
// i8[qi*dim:], and the coefficients of its bound. plain marks a batch that
// skips the first pass.
type queryBatch struct {
	fp    []float32
	plain bool
	i8    []int16
	coef  []queryCoef
}

// queryCoef holds one query's scale and bound coefficients: a row with
// state x and integer dot p scores within ±(x.enorm·a + x.norm·b + c) of
// scale·x.scale·p.
type queryCoef struct {
	scale, a, b, c float64
}

var queryBatchPool = sync.Pool{New: func() any { return new(queryBatch) }}

// prepQueries quantizes the packed batch fp for the first pass, or marks
// it plain when quant is false or a query is outside what the bound
// covers. The returned batch goes back with putQueryBatch.
func prepQueries(fp []float32, dim int, quant bool) *queryBatch {
	qb := queryBatchPool.Get().(*queryBatch)
	nq := len(fp) / dim
	qb.fp, qb.plain = fp, !quant || dim > maxFirstPassDim
	if qb.plain {
		return qb
	}
	qb.i8 = slices.Grow(qb.i8[:0], nq*dim)[:nq*dim]
	qb.coef = slices.Grow(qb.coef[:0], nq)[:nq]
	m := float64(dim + 8)
	gamma := m * 0x1p-24 / (1 - m*0x1p-24) * (1 + 0x1p-40)
	for qi := range nq {
		q := fp[qi*dim : (qi+1)*dim]
		var maxAbs, n2, nonFinite float64
		for _, x := range q {
			xf := float64(x)
			maxAbs = max(maxAbs, math.Abs(xf))
			n2 += xf * xf
			nonFinite += xf - xf // NaN once any element is ±Inf or NaN
		}
		n := math.Sqrt(n2) * pad(dim)
		if nonFinite != 0 || n > 0x1p64 {
			qb.plain = true
			return qb
		}
		s, en, _ := quantize(qb.i8[qi*dim:(qi+1)*dim], q, maxAbs)
		// The tiny floor on a keeps ‖e_x‖ = +Inf times a at +Inf for a zero
		// query, so a non-finite row stays a candidate.
		qb.coef[qi] = queryCoef{scale: float64(s), a: n*(1+gamma) + 0x1p-1000, b: en + gamma*n, c: m * 0x1p-149}
	}
	return qb
}

func putQueryBatch(qb *queryBatch) {
	qb.fp = nil
	queryBatchPool.Put(qb)
}

// passState is one query's first pass over one segment: lows is a min-heap
// of the k largest lower bounds seen, so τ is lows[0] once it holds k;
// cands lists every row whose upper bound reached τ as it stood when the
// row was bounded. τ only grows, so the rows whose upper bound reaches the
// final τ are all in cands.
type passState struct {
	k     int
	lows  []float64
	cands []candidate
}

type candidate struct {
	row int32   // segment-local row
	hi  float64 // its upper bound
}

// reset starts a pass that keeps the k largest lower bounds.
func (p *passState) reset(k int) {
	p.k, p.lows, p.cands = k, p.lows[:0], p.cands[:0]
}

func (p *passState) tau() float64 {
	if len(p.lows) < p.k {
		return math.Inf(-1)
	}
	return p.lows[0]
}

// bound bounds the rows of one tile, whose integer dots are dots and whose
// state is bnd, for the query with coefficients c; row i of the tile is
// segment row r0+i.
func (p *passState) bound(dots []int32, bnd []rowBound, c queryCoef, r0 int) {
	tau := p.tau()
	for i, d := range dots {
		x := &bnd[i]
		approx := c.scale * float64(x.scale) * float64(d)
		w := (float64(x.enorm)*c.a+float64(x.norm)*c.b+c.c)*(1+0x1p-48) + math.Abs(approx)*0x1p-48
		// Until the heap holds k bounds τ is -Inf, so every finite lower
		// bound enters; a -Inf one (a non-finite row) never raises τ.
		if lo := approx - w; lo > tau {
			p.pushLow(lo)
			tau = p.tau()
		}
		if hi := approx + w; hi >= tau {
			p.cands = append(p.cands, candidate{row: int32(r0 + i), hi: hi})
		}
	}
}

// survivors appends to dst, in row order, the candidates whose upper
// bound reaches the final τ: the rows the rerank rescores.
func (p *passState) survivors(dst []int32) []int32 {
	tau := p.tau()
	for _, c := range p.cands {
		if c.hi >= tau {
			dst = append(dst, c.row)
		}
	}
	return dst
}

// pushLow adds a lower bound to the heap, evicting the smallest once the
// heap holds k.
func (p *passState) pushLow(lo float64) {
	h := p.lows
	if len(h) < p.k {
		h = append(h, lo)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if h[parent] <= h[i] {
				break
			}
			h[parent], h[i] = h[i], h[parent]
			i = parent
		}
		p.lows = h
		return
	}
	h[0] = lo
	for i := 0; ; {
		l, small := 2*i+1, i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r := l + 1; r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			return
		}
		h[small], h[i] = h[i], h[small]
		i = small
	}
}

// passScratch is the pooled working set of one segment's first pass.
type passScratch struct {
	dots   [scanTileRows]int32
	qs     []passState
	rows   []int32
	scores []float32
}

var passPool = sync.Pool{New: func() any { return new(passScratch) }}

// firstPassTopK is scanBatchTopK through the first pass: each tile of int8
// rows is scored against every query of the batch while it sits in L1 and
// bounded, then each query rescores its surviving candidates with
// f16.DotRows and pushes them into hs[qi] as ids base+row.
func firstPassTopK(b halfBlock, qb *queryBatch, hs []*topK, base int) {
	rows, dim := b.rows(), b.dim
	sc := passPool.Get().(*passScratch)
	if cap(sc.qs) < len(hs) {
		sc.qs = make([]passState, len(hs))
	}
	qs := sc.qs[:len(hs)]
	for qi, h := range hs {
		qs[qi].reset(h.k)
	}
	for r0 := 0; r0 < rows; r0 += scanTileRows {
		r1 := min(r0+scanTileRows, rows)
		dots, tile := sc.dots[:r1-r0], b.i8[r0*dim:r1*dim]
		for qi := range qs {
			f16.DotI8Rows(dots, tile, qb.i8[qi*dim:(qi+1)*dim])
			qs[qi].bound(dots, b.bnd[r0:r1], qb.coef[qi], r0)
		}
	}
	for qi, h := range hs {
		cand := qs[qi].survivors(sc.rows[:0])
		scores := slices.Grow(sc.scores[:0], len(cand))[:len(cand)]
		gatherScores(b, cand, qb.fp[qi*dim:(qi+1)*dim], scores)
		for i, r := range cand {
			h.push(base+int(r), scores[i])
		}
		sc.rows, sc.scores = cand, scores
	}
	passPool.Put(sc)
}
