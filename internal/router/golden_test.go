package router

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/llmsim"
	"repro/internal/mcq"
	"repro/internal/rag"
	"repro/internal/serve"
)

// matrixLines renders every cell of a matrix in the golden file's format:
// "table/model/condition correct/total meanUtility", the utility with
// every bit of its float64.
func matrixLines(table string, m *eval.Matrix) []string {
	var lines []string
	for _, row := range m.Rows {
		for _, cond := range m.Conditions {
			if c := row.Cells[cond]; c != nil {
				lines = append(lines, fmt.Sprintf("%s/%s/%s %d/%d %s", table, row.Model, cond,
					c.Correct, c.Total, strconv.FormatFloat(c.MeanUtility, 'g', -1, 64)))
			}
		}
	}
	return lines
}

// TestServedGoldenMatrix runs the paper's evaluation — the synthetic,
// Astro and Astro no-math matrices over the scale-0.01 build that
// core.TestGoldenMatrix pins — with every retrieval served: the exam's
// stores are a one-shard set over a router's HTTP front, and the router
// fans each batch out to three ragserve shards holding the chunks and
// traces round-robin. Float32 scores survive JSON exactly and MergeTopK
// restores the stores' total order, so every cell must equal the
// in-process golden file; any difference is a wire-format or merge bug.
func TestServedGoldenMatrix(t *testing.T) {
	a, err := core.BuildBenchmark(core.DefaultConfig(0.01))
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	chunkParts := make([][]chunk.Chunk, shards)
	for i, c := range a.Chunks {
		chunkParts[i%shards] = append(chunkParts[i%shards], c)
	}
	traceParts := make([][]*mcq.Trace, shards)
	for i, tr := range a.Traces {
		traceParts[i%shards] = append(traceParts[i%shards], tr)
	}
	routes := []string{serve.RouteChunks}
	for _, mode := range mcq.AllModes {
		routes = append(routes, serve.TraceRoute(mode))
	}
	urls := make([]string, shards)
	for i := range urls {
		s := serve.New(rag.BuildChunkStore(nil, chunkParts[i], 0), serve.DefaultConfig())
		if err := s.MountTraceStores(rag.TraceStores(nil, traceParts[i], nil, 0)); err != nil {
			t.Fatal(err)
		}
		if err := s.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		urls[i] = "http://" + s.Addr()
	}
	// One exam batch carries every question (198 synthetic, 335 Astro);
	// under -race that outlives the default 2 s per-attempt deadline.
	const shardTimeout = 2 * time.Minute
	front, err := New(Config{Shards: urls, Routes: routes, ShardTimeout: shardTimeout})
	if err != nil {
		t.Fatal(err)
	}
	if err := front.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { front.Close() })
	// The exam's remote store is the router's own shard set, pointed at the
	// router front: one path through both serving tiers.
	remote, err := New(Config{Shards: []string{"http://" + front.Addr()}, Routes: routes, ShardTimeout: shardTimeout})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	served := func(s *eval.Setup) *eval.Setup {
		s.Chunks = shardSet{r: remote, route: serve.RouteChunks}
		s.Traces = make(map[mcq.ReasoningMode]rag.Facade, len(mcq.AllModes))
		for _, mode := range mcq.AllModes {
			s.Traces[mode] = shardSet{r: remote, route: serve.TraceRoute(mode)}
		}
		return s
	}

	syn, err := eval.Run(served(a.SyntheticSetup()), llmsim.Profiles(), llmsim.AllConditions)
	if err != nil {
		t.Fatal(err)
	}
	// core.EvaluateAstro's two runs, over the served stores.
	astro, exam := a.AstroSetup()
	astro = served(astro)
	profiles := append(llmsim.Profiles(), llmsim.GPT4Profile())
	all, err := eval.Run(astro, profiles, llmsim.AllConditions)
	if err != nil {
		t.Fatal(err)
	}
	noMath, err := eval.Run(core.AstroNoMathSetup(astro, exam), profiles, llmsim.AllConditions)
	if err != nil {
		t.Fatal(err)
	}
	lines := matrixLines("synthetic", syn)
	lines = append(lines, matrixLines("astro", all)...)
	lines = append(lines, matrixLines("astro-nomath", noMath)...)

	golden, err := os.ReadFile("../core/testdata/golden_matrix.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("served matrix has %d cells, golden file %d", len(lines), len(want))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("cell %d:\n served %s\n golden %s", i, lines[i], want[i])
		}
	}
}
