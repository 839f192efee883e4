// pipeline_scale measures the parallel scaling of the generation pipeline's
// compute-bound stages (parse → chunk → embed) across worker counts — the
// HPC motivation of the paper, whose framework is "designed to utilize
// high-performance computing platforms".
//
//	go run ./examples/pipeline_scale
package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/chunk"
	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/spdf"
)

func main() {
	kb := corpus.Build(42, 40)
	gen := corpus.NewGenerator(kb, 42)
	const nDocs = 400
	fmt.Printf("workload: %d full-text documents, GOMAXPROCS=%d\n\n", nDocs, runtime.GOMAXPROCS(0))

	payloads := make([][]byte, nDocs)
	names := make([]string, nDocs)
	for i := 0; i < nDocs; i++ {
		d := gen.GenerateDoc(corpus.FullPaper, i)
		payloads[i] = spdf.Encode(d)
		names[i] = d.ID
	}

	fmt.Printf("%-8s %10s %10s %10s %10s %9s\n", "workers", "parse", "chunk", "embed", "total", "speedup")
	var baseline time.Duration
	for _, workers := range []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)} {
		if workers > runtime.GOMAXPROCS(0) {
			continue
		}
		tParse := time.Now()
		results, _ := spdf.ParseAll(payloads, names, workers)
		dParse := time.Since(tParse)

		var docs []chunk.Doc
		for _, res := range results {
			docs = append(docs, chunk.Doc{ID: res.Parsed.Meta.DocID, Text: res.Parsed.Text})
		}
		tChunk := time.Now()
		chunks := chunk.New(chunk.DefaultConfig(), nil).SplitAll(docs, workers)
		dChunk := time.Since(tChunk)

		texts := make([]string, len(chunks))
		for i, c := range chunks {
			texts[i] = c.Text
		}
		tEmbed := time.Now()
		enc := embed.NewDefault()
		embed.NewPool(enc, workers).EncodeF16Into(make([]uint16, len(texts)*enc.Dim()), texts)
		dEmbed := time.Since(tEmbed)

		total := dParse + dChunk + dEmbed
		if workers == 1 {
			baseline = total
		}
		fmt.Printf("%-8d %10s %10s %10s %10s %8.2fx\n",
			workers, dParse.Round(time.Millisecond), dChunk.Round(time.Millisecond),
			dEmbed.Round(time.Millisecond), total.Round(time.Millisecond),
			float64(baseline)/float64(total))
	}
	fmt.Println("\nthe embedding and chunking stages scale near-linearly — the property the")
	fmt.Println("paper exploits to process 173,318 chunks on ALCF nodes.")
}
