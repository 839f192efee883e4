package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/corpus"
	"repro/internal/rng"
	"repro/internal/serve"
)

// The five workloads, in the order BENCHMARK.json lists them
// (benchjson_test.go holds the two together).
const (
	wlMCQABuild    = "mcqa_build"
	wlServeMiss    = "serve_miss"
	wlServeZipf    = "serve_zipf"
	wlIngestMixed  = "ingest_mixed"
	wlRouterFanout = "router_fanout"
)

var workloadNames = []string{wlMCQABuild, wlServeMiss, wlServeZipf, wlIngestMixed, wlRouterFanout}

// Load shape, fixed here rather than derived from the machine so a parent
// commit and a change always run the same load.
const (
	maxProcs    = 2  // GOMAXPROCS and core.Config.Workers
	loadClients = 2  // closed-loop clients, one keep-alive connection each
	searchK     = 10 // retrieval depth of every search
	warmupShare = 0.1

	serveScale = 0.05 // serving corpora: ~7.5k chunks, dim 384
	buildScale = 0.01 // mcqa_build: ~1.5k chunks -> ~200 questions -> ~600 traces
	cacheCap   = 256  // serve_zipf's cache, smaller than its key pool
	compactAt  = 256  // ingest_mixed's memtable drain threshold

	zipfKeys  = 1024
	zipfS     = 1.1
	zipfDraws = 1 << 18 // pre-drawn ranks; the index wraps beyond (~5x a seed-commit run)

	// ingest_mixed: every insertEvery-th op adds insertBatch fresh chunks,
	// the rest search. Every 4th (not 8th) so a 10 s window still collects
	// the ~1000 add samples a p99 needs.
	insertEvery = 4
	insertBatch = 2

	insertPrefix = "ing-" // ids of chunks ingest_mixed adds

	routerShards = 3
	oracleEvery  = 50   // 1-in-50 responses are checked against the oracle
	hashOps      = 4096 // ops covered by the sequence hash
)

type opKind uint8

const (
	opSearch opKind = iota
	opAdd
)

// op is one operation of a serving workload's sequence.
type op struct {
	Kind  opKind
	Query string
	Adds  []serve.AddChunk
}

// sequence yields the op at any index as a pure function of (workload,
// seed, index): the servers only ever see these generated inputs, and two
// runs with one seed issue byte-identical requests in the same order.
type sequence struct {
	workload  string
	seed      uint64
	stems     []string // corpus.Fact.QuestionStem of every fact, seed-shuffled
	sentences []string // corpus.Fact.Sentence, same order
	keys      []string // serve_zipf key pool
	draws     []uint16 // serve_zipf pre-drawn ranks
}

func newSequence(workload string, seed uint64, kb *corpus.KB) *sequence {
	facts := kb.AllFacts()
	perm := rng.New(seed).Split("ragbench/" + workload).Perm(len(facts))
	s := &sequence{workload: workload, seed: seed,
		stems: make([]string, len(facts)), sentences: make([]string, len(facts))}
	for i, p := range perm {
		s.stems[i] = facts[p].QuestionStem()
		s.sentences[i] = facts[p].Sentence()
	}
	if workload == wlServeZipf {
		s.keys = make([]string, zipfKeys)
		for j := range s.keys {
			s.keys[j] = s.salted(s.stems[j%len(s.stems)], "panel", j)
		}
		z := rng.NewZipf(zipfKeys, zipfS)
		src := rng.New(seed).Split("ragbench/zipf-draws")
		s.draws = make([]uint16, zipfDraws)
		for i := range s.draws {
			s.draws[i] = uint16(z.Sample(src))
		}
	}
	return s
}

// mix is splitmix64's finaliser: a cheap stateless hash of (seed, i).
func mix(seed uint64, i int) uint64 {
	x := seed + uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// salted appends a token unique to (seed, i) so the text never repeats
// within or across runs of different seeds, yet stays in the corpus domain.
func (s *sequence) salted(text, word string, i int) string {
	return text + " (" + word + " " + strconv.Itoa(i) + "-" + strconv.FormatUint(mix(s.seed, i)&0xffffff, 16) + ")"
}

func (s *sequence) uniqueQuery(i int) string {
	return s.salted(s.stems[int(mix(s.seed, i)%uint64(len(s.stems)))], "case", i)
}

// At returns op i of the sequence.
func (s *sequence) At(i int) op {
	switch s.workload {
	case wlServeZipf:
		return op{Kind: opSearch, Query: s.keys[s.draws[i%len(s.draws)]]}
	case wlIngestMixed:
		if i%insertEvery != insertEvery-1 {
			return op{Kind: opSearch, Query: s.uniqueQuery(i)}
		}
		adds := make([]serve.AddChunk, insertBatch)
		for j := range adds {
			h := mix(s.seed^0xadd, i*insertBatch+j)
			n := uint64(len(s.sentences))
			adds[j] = serve.AddChunk{
				ID:    fmt.Sprintf("%s%d-%d-%d", insertPrefix, s.seed, i, j),
				DocID: fmt.Sprintf("ingest-%d", s.seed),
				Text: s.salted(s.sentences[h%n]+" "+s.sentences[(h>>20)%n],
					"addendum", i*insertBatch+j),
			}
		}
		return op{Kind: opAdd, Adds: adds}
	default: // serve_miss, router_fanout
		return op{Kind: opSearch, Query: s.uniqueQuery(i)}
	}
}

// Hash digests the first hashOps ops. Equal seeds give equal hashes; it is
// printed in every report so two runs can be shown to have issued the same
// requests.
func (s *sequence) Hash() string {
	h := sha256.New()
	var n [8]byte
	for i := 0; i < hashOps; i++ {
		o := s.At(i)
		binary.LittleEndian.PutUint64(n[:], uint64(i)<<8|uint64(o.Kind))
		h.Write(n[:])
		h.Write([]byte(o.Query))
		for _, a := range o.Adds {
			h.Write([]byte(a.ID))
			h.Write([]byte{0})
			h.Write([]byte(a.Text))
			h.Write([]byte{0})
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}
