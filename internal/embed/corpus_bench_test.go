package embed_test

import (
	"testing"

	"repro/internal/chunk"
	"repro/internal/corpus"
	"repro/internal/embed"
)

// BenchmarkEncodeCorpus encodes the distinct chunk texts of a tiny
// generated corpus (30 full papers) in turn, the text mix a store build
// encodes. BenchmarkEncode repeats one sentence, so every word lookup
// after its first iteration hits the word memo; here the vocabulary is the
// corpus's, and the memo's slot collisions cost what they cost in a build.
func BenchmarkEncodeCorpus(b *testing.B) {
	kb := corpus.Build(42, 20)
	g := corpus.NewGenerator(kb, 7)
	var docs []chunk.Doc
	for i := 0; i < 30; i++ {
		d := g.GenerateDoc(corpus.FullPaper, i)
		docs = append(docs, chunk.Doc{ID: d.ID, Text: d.Text()})
	}
	seen := map[string]bool{}
	var texts []string
	for _, c := range chunk.New(chunk.DefaultConfig(), nil).SplitAll(docs, 1) {
		if !seen[c.Text] {
			seen[c.Text] = true
			texts = append(texts, c.Text)
		}
	}
	e := embed.NewDefault()
	dst := make([]float32, e.Dim())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.EncodeInto(dst, texts[i%len(texts)])
	}
}
