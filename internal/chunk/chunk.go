// Package chunk implements semantic chunking of parsed document text, the
// stage the paper performs with PubMedBERT to fit SLM context limits
// (yielding 173,318 chunks from 22,548 documents).
//
// The algorithm mirrors encoder-based semantic chunking: sentences are
// embedded, adjacent-sentence cosine similarity is computed, and chunk
// boundaries are placed at similarity valleys (topic shifts), subject to
// minimum and maximum token budgets. Every chunk carries provenance — the
// source document id, its position, and a stable content-derived chunk id —
// exactly the lineage the paper's question schema preserves.
package chunk

import (
	"fmt"

	"repro/internal/embed"
	"repro/internal/f16"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/tokenizer"
)

// Chunk is one semantically coherent span of a document.
type Chunk struct {
	ID     string `json:"chunk_id"` // stable content hash id
	DocID  string `json:"doc_id"`   // source document
	Index  int    `json:"index"`    // position within the document
	Text   string `json:"text"`
	Tokens int    `json:"tokens"` // approximate LLM tokens
}

// Config parameterises the chunker.
type Config struct {
	// MinTokens is the smallest chunk emitted except for document tails.
	MinTokens int
	// MaxTokens caps chunk size so retrieved context fits SLM windows.
	MaxTokens int
	// BoundaryQuantile in (0,1): adjacent-similarity values below this
	// quantile of the document's similarity distribution become candidate
	// boundaries. Lower → fewer, larger chunks.
	BoundaryQuantile float64
}

// DefaultConfig matches the reproduction's pipeline settings: chunks of
// roughly a paragraph, bounded at 256 tokens so even a 2,048-token context
// model can take several retrieved chunks plus the question.
func DefaultConfig() Config {
	return Config{MinTokens: 48, MaxTokens: 256, BoundaryQuantile: 0.35}
}

// Chunker splits text using an embedding encoder for boundary detection.
type Chunker struct {
	cfg Config
	enc *embed.Encoder
}

// New returns a Chunker. A nil encoder selects the default embedder.
func New(cfg Config, enc *embed.Encoder) *Chunker {
	if enc == nil {
		enc = embed.NewDefault()
	}
	if cfg.MinTokens <= 0 {
		cfg.MinTokens = 48
	}
	if cfg.MaxTokens <= cfg.MinTokens {
		cfg.MaxTokens = cfg.MinTokens * 4
	}
	if cfg.BoundaryQuantile <= 0 || cfg.BoundaryQuantile >= 1 {
		cfg.BoundaryQuantile = 0.35
	}
	return &Chunker{cfg: cfg, enc: enc}
}

// Split chunks one document's text, attaching provenance to docID.
func (c *Chunker) Split(docID, text string) []Chunk {
	sentences := tokenizer.SplitSentences(text)
	if len(sentences) == 0 {
		return nil
	}
	if len(sentences) == 1 {
		return c.emit(docID, sentences)
	}

	// Embed sentences and score adjacent similarity.
	vecs := make([][]float32, len(sentences))
	for i, s := range sentences {
		vecs[i] = c.enc.Encode(s)
	}
	sims := make([]float32, len(sentences)-1)
	for i := range sims {
		sims[i] = f16.Cosine(vecs[i], vecs[i+1])
	}
	threshold := quantile(sims, c.cfg.BoundaryQuantile)

	// Walk sentences, cutting at similarity valleys once MinTokens is
	// reached, and force-cutting at MaxTokens.
	var chunks []Chunk
	var cur []string
	curTokens := 0
	flush := func() {
		if len(cur) == 0 {
			return
		}
		chunks = append(chunks, c.makeChunk(docID, len(chunks), cur))
		cur = cur[:0]
		curTokens = 0
	}
	for i, s := range sentences {
		st := tokenizer.CountTokens(s)
		if curTokens > 0 && curTokens+st > c.cfg.MaxTokens {
			flush()
		}
		cur = append(cur, s)
		curTokens += st
		atValley := i < len(sims) && sims[i] <= threshold
		if atValley && curTokens >= c.cfg.MinTokens {
			flush()
		}
	}
	flush()
	return chunks
}

// emit wraps remaining sentences into max-token-bounded chunks without
// boundary detection (single-sentence or degenerate inputs).
func (c *Chunker) emit(docID string, sentences []string) []Chunk {
	var chunks []Chunk
	var cur []string
	curTokens := 0
	for _, s := range sentences {
		st := tokenizer.CountTokens(s)
		if curTokens > 0 && curTokens+st > c.cfg.MaxTokens {
			chunks = append(chunks, c.makeChunk(docID, len(chunks), cur))
			cur, curTokens = nil, 0
		}
		cur = append(cur, s)
		curTokens += st
	}
	if len(cur) > 0 {
		chunks = append(chunks, c.makeChunk(docID, len(chunks), cur))
	}
	return chunks
}

func (c *Chunker) makeChunk(docID string, index int, sentences []string) Chunk {
	text := join(sentences)
	return Chunk{
		ID:     fmt.Sprintf("chunk-%016x", rng.HashStrings(docID, fmt.Sprint(index), text)),
		DocID:  docID,
		Index:  index,
		Text:   text,
		Tokens: tokenizer.CountTokens(text),
	}
}

func join(sentences []string) string {
	n := 0
	for _, s := range sentences {
		n += len(s) + 1
	}
	buf := make([]byte, 0, n)
	for i, s := range sentences {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, s...)
	}
	return string(buf)
}

// quantile returns the q-quantile of xs (stats.Quantile) by sorting a copy.
func quantile(xs []float32, q float64) float32 {
	sorted := make([]float32, len(xs))
	copy(sorted, xs)
	// Insertion sort: similarity arrays are short (sentences per doc).
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return stats.Quantile(sorted, q)
}

// Doc pairs a document id with its text, the input unit of SplitAll.
type Doc struct {
	ID   string
	Text string
}

// SplitAll chunks many documents in parallel, preserving document order in
// the flattened output. workers <= 0 selects GOMAXPROCS.
func (c *Chunker) SplitAll(docs []Doc, workers int) []Chunk {
	perDoc := make([][]Chunk, len(docs))
	pipeline.For(len(docs), workers, func(i int) {
		perDoc[i] = c.Split(docs[i].ID, docs[i].Text)
	})
	var out []Chunk
	for _, cs := range perDoc {
		out = append(out, cs...)
	}
	return out
}
