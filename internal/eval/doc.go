// Package eval is the evaluation harness of the reproduction: it runs every
// (model × condition) cell of the paper's Tables 2-4, grading with the LLM
// judge, measuring retrieval utility mechanistically, and rendering the
// tables and percent-improvement figures (Figures 4-6).
//
// A Setup bundles one benchmark's questions with its retrieval stores,
// each a rag.Facade (in-process, or remote such as a router's shard set),
// and the distilled questions' facts that trace utility grades against;
// Run sweeps the (model, condition) matrix with one Facade.RetrieveBatch
// per condition, so in-process each vecstore code tile (or IVF-PQ LUT) is
// amortised across the whole question set, and the exam reads the same
// rag.Hit records the served stack returns. Each hit is graded once per
// condition (rag.Grades) and the grades are shared by every model; the
// cells then run in parallel, each on its own seed-derived answer stream,
// so the matrix does not depend on Setup.Workers. Rendering helpers
// produce the paper's tables (RenderTable1/2, RenderAstroTable), the
// percent-improvement figures (RenderFigure), per-topic breakdowns
// (RenderTopicBreakdown), CSV export (RenderCSV), and the
// retrieval-store configuration table (RenderRetrievalStats) that makes
// index recall/memory trade-offs visible alongside accuracy.
package eval
