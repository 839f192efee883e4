// traces_vs_chunks dissects the paper's central comparison for a single
// question: what chunk retrieval returns versus what reasoning-trace
// retrieval returns, the measured utility of each, and the accuracy impact
// across the full model roster.
//
//	go run ./examples/traces_vs_chunks
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llmsim"
	"repro/internal/mcq"
	"repro/internal/rag"
)

func main() {
	artifacts, err := core.BuildBenchmark(core.DefaultConfig(0.005))
	if err != nil {
		log.Fatal(err)
	}

	// Pick a grounded question and retrieve from both sources.
	q := artifacts.Questions[len(artifacts.Questions)/2]
	fmt.Printf("question: %s\n  keyed answer: %q\n\n", q.Question, q.AnswerText())

	// Both conditions retrieve through the same facade the evaluation uses.
	setup := artifacts.SyntheticSetup()
	retrieve := func(store rag.Facade) []rag.Hit {
		b, err := store.RetrieveBatch(context.Background(), []string{q.Question}, 3, nil)
		if err != nil {
			log.Fatal(err)
		}
		return b.Hits[0]
	}

	chunks := retrieve(setup.Chunks)
	fmt.Println("top chunk retrievals (RAG-Chunks condition):")
	for i, h := range chunks {
		fmt.Printf("  [%d] score %.3f, doc %s\n      %.140s…\n", i+1, h.Score, h.Group, h.Text)
	}
	cu := rag.Utility(artifacts.KB, q, "", nil, chunks, nil)

	traces := retrieve(setup.Traces[mcq.ModeFocused])
	fmt.Println("\ntop trace retrievals (RAG-RT-Focused condition):")
	for i, h := range traces {
		fmt.Printf("  [%d] score %.3f, from question %s\n      %.140s…\n", i+1, h.Score, h.Group, h.Text)
	}
	tu := rag.Utility(artifacts.KB, q, mcq.ModeFocused, setup.Facts, traces, nil)

	fmt.Printf("\nmeasured retrieval utility: chunks %.3f vs traces %.3f\n", cu, tu)
	fmt.Println("(traces are distilled: less filler per retrieved token, so higher utility)")

	// Accuracy impact across the whole roster.
	matrix, err := eval.Run(setup, llmsim.Profiles(),
		[]llmsim.Condition{llmsim.CondBaseline, llmsim.CondChunks, llmsim.CondRTFocused})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\naccuracy, all models:")
	fmt.Printf("%-28s %9s %9s %9s %9s\n", "model", "baseline", "chunks", "rt-focus", "Δrt-chunk")
	for _, row := range matrix.Rows {
		b := row.Cells[llmsim.CondBaseline].Accuracy
		c := row.Cells[llmsim.CondChunks].Accuracy
		t := row.Cells[llmsim.CondRTFocused].Accuracy
		fmt.Printf("%-28s %9.3f %9.3f %9.3f %+9.3f\n", row.Model, b, c, t, t-c)
	}
}
