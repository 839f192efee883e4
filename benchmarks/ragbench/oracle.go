package main

import (
	"errors"
	"slices"
	"strings"

	"repro/internal/embed"
	"repro/internal/serve"
	"repro/internal/vecstore"
)

var errNoRouterWrites = errors.New("ragbench: the router has no add endpoint")

// oracle is the benchmark's own exact search: every base vector decoded to
// float32 once (Flat.Vector), queries embedded with the default encoder,
// scores by plain dot product. It shares no search code with vecstore.
type oracle struct {
	enc   *embed.Encoder
	dim   int
	vecs  []float32
	index map[string]int // key -> row
	memo  map[string]oracleAnswer
}

// oracleAnswer is one query's exact result: its embedding and the k best
// scores over the base corpus, descending.
type oracleAnswer struct {
	qvec []float32
	top  []float32
}

// scoreSlack absorbs float32 summation-order differences between this dot
// product and the vecstore kernels' (both score the same decoded vectors).
const scoreSlack = 1e-4

func newOracle(flats []*vecstore.Flat) *oracle {
	o := &oracle{enc: embed.NewDefault(), index: make(map[string]int), memo: make(map[string]oracleAnswer)}
	for _, f := range flats {
		o.dim = f.Dim()
		base := len(o.vecs)
		o.vecs = append(o.vecs, make([]float32, f.Len()*o.dim)...)
		for i := 0; i < f.Len(); i++ {
			f.VectorInto(o.vecs[base+i*o.dim:base+(i+1)*o.dim], i)
			o.index[f.Key(i)] = base/o.dim + i
		}
	}
	return o
}

func (o *oracle) score(q []float32, row int) float32 {
	v := o.vecs[row*o.dim : (row+1)*o.dim]
	var s float32
	for j, x := range q {
		s += x * v[j]
	}
	return s
}

// answer scores every base vector against query and keeps the k best scores.
func (o *oracle) answer(query string) oracleAnswer {
	if got, ok := o.memo[query]; ok {
		return got
	}
	a := oracleAnswer{qvec: o.enc.Encode(query)}
	scores := make([]float32, len(o.vecs)/o.dim)
	for i := range scores {
		scores[i] = o.score(a.qvec, i)
	}
	slices.Sort(scores)
	slices.Reverse(scores)
	a.top = slices.Clone(scores[:min(searchK, len(scores))])
	o.memo[query] = a
	return a
}

// recall is the share of a reply that belongs in the exact top-k: an id
// counts when its exact score reaches the k-th best exact score, so ties at
// the cut are right whichever way they fall. Ids of live inserts (the
// insertPrefix) are not in the oracle's base corpus; each one legitimately
// displaces a base hit, so it shortens what is asked for.
func (o *oracle) recall(query string, hits []serve.SearchResult) float64 {
	a := o.answer(query)
	need := len(a.top)
	for _, hit := range hits {
		if strings.HasPrefix(hit.ID, insertPrefix) {
			need--
		}
	}
	if need <= 0 {
		return 1
	}
	cut := a.top[need-1] - scoreSlack
	found := 0
	for _, hit := range hits {
		if row, ok := o.index[hit.ID]; ok && o.score(a.qvec, row) >= cut {
			found++
		}
	}
	return min(1, float64(found)/float64(need))
}
