package rag

import (
	"strings"
	"testing"

	"repro/internal/chunk"
	"repro/internal/corpus"
	"repro/internal/embed"
	"repro/internal/llmsim"
	"repro/internal/mcq"
	"repro/internal/rng"
	"repro/internal/vecstore"
)

// fixture builds a small end-to-end corpus: documents → chunks → questions
// → traces, the inputs of the retrieval layer.
type fixture struct {
	kb        *corpus.KB
	chunks    []chunk.Chunk
	questions []*mcq.Question
	traces    []*mcq.Trace
}

func buildFixture(t testing.TB, nDocs int) *fixture {
	t.Helper()
	kb := corpus.Build(42, 20)
	g := corpus.NewGenerator(kb, 7)
	teacher := llmsim.NewTeacher(kb)
	ch := chunk.New(chunk.DefaultConfig(), nil)
	r := rng.New(9)
	fx := &fixture{kb: kb}
	for i := 0; i < nDocs; i++ {
		d := g.GenerateDoc(corpus.FullPaper, i)
		chunks := ch.Split(d.ID, d.Text())
		fx.chunks = append(fx.chunks, chunks...)
		for _, c := range chunks {
			q := teacher.GenerateMCQ(c, d.Facts, "f", r)
			if q.Prov.FactID == "" {
				continue
			}
			fx.questions = append(fx.questions, q)
			fx.traces = append(fx.traces, teacher.GenerateTraces(q)...)
		}
	}
	if len(fx.questions) == 0 {
		t.Fatal("fixture produced no grounded questions")
	}
	return fx
}

func TestChunkStoreSelfRetrieval(t *testing.T) {
	fx := buildFixture(t, 6)
	store := BuildChunkStore(nil, fx.chunks, 0)
	if store.Len() != len(fx.chunks) {
		t.Fatalf("store holds %d, want %d", store.Len(), len(fx.chunks))
	}
	// Querying with a chunk's own text must return that chunk first.
	hits := 0
	for i := 0; i < len(fx.chunks); i += 5 {
		res := store.Retrieve(fx.chunks[i].Text, 1)
		if len(res) == 1 && res[0].ID == fx.chunks[i].ID {
			hits++
		}
	}
	total := (len(fx.chunks) + 4) / 5
	if float64(hits) < 0.9*float64(total) {
		t.Fatalf("self-retrieval %d/%d", hits, total)
	}
}

func TestChunkRetrievalFindsSourceFact(t *testing.T) {
	// The paper's RAG-Chunks condition works because question embeddings
	// land near their source chunk. Verify the source fact is usually
	// retrieved in the top 5.
	fx := buildFixture(t, 6)
	store := BuildChunkStore(nil, fx.chunks, 0)
	found := 0
	for _, q := range fx.questions {
		f := fx.kb.Fact(corpus.FactID(q.Prov.FactID))
		for _, rc := range store.Retrieve(q.Question, 5) {
			if strings.Contains(rc.Text, f.Sentence()) {
				found++
				break
			}
		}
	}
	rate := float64(found) / float64(len(fx.questions))
	if rate < 0.5 {
		t.Fatalf("source-fact retrieval rate %.2f too low (%d/%d)", rate, found, len(fx.questions))
	}
}

// withIVFPQ returns a snapshot of store serving an IVF-PQ index built from
// its Flat.
func withIVFPQ(t *testing.T, store *ChunkStore, cfg vecstore.IVFPQConfig) *ChunkStore {
	t.Helper()
	snap, err := store.WithIndex(store.Index().(*vecstore.Flat).ToIVFPQ(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestLiveStoreStaysLive pins how a live store treats indexes: EnableLive
// needs a Flat (a store over an in-memory ANN index fails unchanged), a
// swapped-in Flat gets a fresh memtable layer so inserts keep working, a
// Live passes through, and an index that cannot take inserts is refused.
func TestLiveStoreStaysLive(t *testing.T) {
	fx := buildFixture(t, 2)
	flatStore := BuildChunkStore(nil, fx.chunks, 0)
	flat := flatStore.Index().(*vecstore.Flat)
	graph, err := flatStore.WithIndex(flat.ToHNSW(vecstore.HNSWConfig{Seed: 1}))
	if err != nil {
		t.Fatal(err)
	}
	before := graph.IndexStats().Kind
	if err := graph.EnableLive(); err == nil {
		t.Fatalf("EnableLive on a %s store succeeded", before)
	}
	if after := graph.IndexStats().Kind; after != before {
		t.Fatalf("failed EnableLive changed the index %s → %s", before, after)
	}

	live := BuildChunkStore(nil, fx.chunks, 0)
	if err := live.EnableLive(); err != nil {
		t.Fatal(err)
	}
	if err := live.EnableLive(); err != nil {
		t.Fatalf("second EnableLive: %v", err)
	}
	swapped, err := live.WithIndex(flat)
	if err != nil {
		t.Fatal(err)
	}
	lv, ok := swapped.Index().(*vecstore.Live)
	if !ok || lv.Base() != flat {
		t.Fatalf("live store swapped to a Flat serves %T, want a Live over that Flat", swapped.Index())
	}
	added := chunk.Chunk{ID: "live-after-swap", DocID: "live", Text: "a chunk inserted after the hot swap of the exact index"}
	if _, err := swapped.AddChunks([]chunk.Chunk{added}); err != nil {
		t.Fatalf("AddChunks after a swap: %v", err)
	}
	if hits := swapped.Retrieve(added.Text, 1); len(hits) != 1 || hits[0].ID != added.ID {
		t.Fatalf("insert after swap not retrieved first: %v", hits)
	}
	if again, err := swapped.WithIndex(lv); err != nil || again.Index() != vecstore.Index(lv) {
		t.Fatalf("WithIndex(Live) = %v, %v; want the Live unchanged", again, err)
	}
	if _, err := live.WithIndex(graph.Index()); err == nil {
		t.Fatal("live store accepted an HNSW index")
	}
}

// TestChunkStorePQSwap swaps in the exhaustive PQ scan (a one-cell raw
// IVF-PQ): quantized retrieval must keep every chunk and bring nearly
// every chunk's own text back on top.
func TestChunkStorePQSwap(t *testing.T) {
	fx := buildFixture(t, 4)
	store := BuildChunkStore(nil, fx.chunks, 0)
	n := store.Len()
	store = withIVFPQ(t, store, vecstore.IVFPQConfig{NList: 1, M: embed.DefaultDim / 4, Seed: 1})
	if store.Len() != n {
		t.Fatal("PQ swap lost vectors")
	}
	if kind := store.IndexStats().Kind; !strings.HasPrefix(kind, "IVF-PQ(nlist=1,") {
		t.Fatalf("IndexStats kind %q after PQ swap", kind)
	}
	// Quantized self-retrieval: the chunk's own text should still come
	// back on top for nearly all probes.
	hits := 0
	for i := 0; i < len(fx.chunks); i += 5 {
		res := store.Retrieve(fx.chunks[i].Text, 1)
		if len(res) == 1 && res[0].ID == fx.chunks[i].ID {
			hits++
		}
	}
	total := (len(fx.chunks) + 4) / 5
	if float64(hits) < 0.8*float64(total) {
		t.Fatalf("self-retrieval after PQ swap %d/%d", hits, total)
	}
}

func TestChunkStoreIVFPQSwap(t *testing.T) {
	fx := buildFixture(t, 4)
	store := BuildChunkStore(nil, fx.chunks, 0)
	n := store.Len()
	store = withIVFPQ(t, store, vecstore.IVFPQConfig{NList: 8, NProbe: 8, M: embed.DefaultDim / 4, Seed: 1})
	if store.Len() != n {
		t.Fatal("IVF-PQ swap lost vectors")
	}
	res := store.Retrieve(fx.chunks[0].Text, 1)
	if len(res) != 1 || res[0].ID != fx.chunks[0].ID {
		t.Fatal("retrieval broken after IVF-PQ swap")
	}
	// IVF-PQ is in-memory only: there is no format to save it in.
	if err := store.SaveIndex(t.TempDir() + "/chunks.vsf"); err == nil {
		t.Fatal("SaveIndex of an IVF-PQ store succeeded")
	}
}

func TestChunkStoreMemoryBytes(t *testing.T) {
	fx := buildFixture(t, 2)
	store := BuildChunkStore(nil, fx.chunks, 0)
	want := int64(store.Len()) * int64(2*embed.DefaultDim)
	if store.MemoryBytes() != want {
		t.Fatalf("MemoryBytes %d, want %d", store.MemoryBytes(), want)
	}
}

func TestTraceStorePerMode(t *testing.T) {
	fx := buildFixture(t, 5)
	qf := QuestionFactMap(fx.questions)
	stores := TraceStores(nil, fx.traces, qf, 0)
	if len(stores) != 3 {
		t.Fatalf("%d stores", len(stores))
	}
	for _, mode := range mcq.AllModes {
		s := stores[mode]
		if s.mode != mode {
			t.Fatal("mode mismatch")
		}
		if s.Len() != len(fx.questions) {
			t.Fatalf("mode %s holds %d traces, want %d", mode, s.Len(), len(fx.questions))
		}
	}
}

func TestTraceRetrievalSelfExclusion(t *testing.T) {
	fx := buildFixture(t, 5)
	store := BuildTraceStore(nil, mcq.ModeFocused, fx.traces, 0)
	q := fx.questions[0]
	res := store.RetrieveBatch([]string{q.Question}, 5, []string{q.ID})[0]
	if len(res) != 5 {
		t.Fatalf("%d hits with exclusion, want 5 (the over-fetch covers the excluded trace)", len(res))
	}
	for _, h := range res {
		if h.Group == q.ID {
			t.Fatal("own trace retrieved despite exclusion")
		}
	}
	// Without exclusion, the question's own trace should top the list
	// (trace text restates the question).
	res = store.RetrieveBatch([]string{q.Question}, 5, nil)[0]
	if len(res) == 0 || res[0].Group != q.ID {
		t.Fatal("own trace not top-ranked without exclusion")
	}
}

// TestTraceHitsCarrySourceQuestion: a trace hit's Group is its source
// question, the key utility grading resolves the ground-truth fact by.
func TestTraceHitsCarrySourceQuestion(t *testing.T) {
	fx := buildFixture(t, 5)
	qf := QuestionFactMap(fx.questions)
	source := make(map[string]string, len(fx.traces))
	for _, tr := range fx.traces {
		source[tr.ID] = tr.QuestionID
	}
	store := BuildTraceStore(nil, mcq.ModeEfficient, fx.traces, 0)
	res := store.RetrieveBatch([]string{fx.questions[0].Question}, 3, nil)[0]
	if len(res) != 3 {
		t.Fatalf("%d hits, want 3", len(res))
	}
	for _, h := range res {
		if h.Group == "" || h.Group != source[h.ID] {
			t.Fatalf("trace %s carries group %q, want its question %q", h.ID, h.Group, source[h.ID])
		}
		if qf[h.Group] == "" {
			t.Fatal("retrieved trace's question lacks fact ground truth")
		}
	}
}

func TestAssemblePromptIncludesEverything(t *testing.T) {
	fx := buildFixture(t, 2)
	q := fx.questions[0]
	ctx := []string{"context item one about radiation.", "context item two about repair."}
	p := AssemblePrompt(q, ctx, 32768)
	if !strings.Contains(p.Text, q.Question) {
		t.Fatal("prompt lacks question")
	}
	for i := range q.Options {
		if !strings.Contains(p.Text, string(rune('A'+i))+") ") {
			t.Fatalf("prompt lacks option %c", rune('A'+i))
		}
	}
	for _, c := range ctx {
		if !strings.Contains(p.Text, c) {
			t.Fatalf("prompt lacks context %q", c)
		}
	}
	if len(p.Included) != 2 || !p.Included[0] || !p.Included[1] {
		t.Fatalf("inclusion mask %v", p.Included)
	}
}

func TestAssemblePromptTruncatesForSmallWindow(t *testing.T) {
	fx := buildFixture(t, 2)
	q := fx.questions[0]
	long := strings.Repeat("very long context sentence about dose fractionation. ", 200)
	ctx := []string{long, long, long}
	p := AssemblePrompt(q, ctx, 2048) // OLMo/TinyLlama window
	if p.Tokens > 2048 {
		t.Fatalf("prompt %d tokens exceeds window", p.Tokens)
	}
	if !p.Included[0] {
		t.Fatal("top-ranked context dropped entirely")
	}
	if p.Included[1] && p.Included[2] {
		t.Fatal("small window included every long item")
	}
	// A large window includes them all.
	p = AssemblePrompt(q, ctx, 128000)
	if !p.Included[0] || !p.Included[1] || !p.Included[2] {
		t.Fatalf("large window exclusion mask %v", p.Included)
	}
}

func TestAssemblePromptNoContext(t *testing.T) {
	fx := buildFixture(t, 2)
	q := fx.questions[0]
	p := AssemblePrompt(q, nil, 2048)
	if strings.Contains(p.Text, "Context:") {
		t.Fatal("baseline prompt mentions context")
	}
	if !strings.HasSuffix(p.Text, "Answer: ") {
		t.Fatal("prompt missing answer directive")
	}
}

func TestChunkUtilityOracle(t *testing.T) {
	fx := buildFixture(t, 6)
	store := BuildChunkStore(nil, fx.chunks, 0)
	q := fx.questions[0]
	f := fx.kb.Fact(corpus.FactID(q.Prov.FactID))

	retrieved := store.Retrieve(q.Question, 5)
	u := Utility(fx.kb, q, "", nil, retrieved, nil)
	if u <= 0 || u > 1 {
		t.Fatalf("utility %v out of range", u)
	}
	// Exact fact chunk → near-full utility (times density and rank).
	var exact []Hit
	for _, rc := range retrieved {
		if strings.Contains(rc.Text, f.Sentence()) {
			exact = []Hit{rc}
			break
		}
	}
	if exact != nil {
		if got := Utility(fx.kb, q, "", nil, exact, nil); got < 0.7 {
			t.Fatalf("exact-fact utility %v", got)
		}
	}
	// Empty retrieval → zero.
	if got := Utility(fx.kb, q, "", nil, nil, nil); got != 0 {
		t.Fatalf("empty retrieval utility %v", got)
	}
}

func TestChunkUtilityHonoursInclusionMask(t *testing.T) {
	fx := buildFixture(t, 4)
	store := BuildChunkStore(nil, fx.chunks, 0)
	q := fx.questions[0]
	retrieved := store.Retrieve(q.Question, 3)
	full := Utility(fx.kb, q, "", nil, retrieved, []float64{1, 1, 1})
	none := Utility(fx.kb, q, "", nil, retrieved, []float64{0, 0, 0})
	if none != 0 {
		t.Fatalf("masked-out utility %v", none)
	}
	if full == 0 {
		t.Fatal("unmasked utility zero")
	}
}

func TestTraceUtilityExceedsChunkUtility(t *testing.T) {
	// The paper's core mechanism: distilled traces carry denser
	// answer-relevant signal than raw chunks. Averaged over questions, the
	// measured trace utility must exceed chunk utility.
	fx := buildFixture(t, 8)
	qf := QuestionFactMap(fx.questions)
	cs := BuildChunkStore(nil, fx.chunks, 0)
	ts := BuildTraceStore(nil, mcq.ModeFocused, fx.traces, 0)
	var cu, tu float64
	for _, q := range fx.questions {
		cu += Utility(fx.kb, q, "", nil, cs.Retrieve(q.Question, 5), nil)
		// Paper protocol: the question's own trace is retrievable (answer
		// text excluded), so no self-exclusion here.
		tu += Utility(fx.kb, q, mcq.ModeFocused, qf, ts.RetrieveBatch([]string{q.Question}, 5, nil)[0], nil)
	}
	n := float64(len(fx.questions))
	if tu/n <= cu/n {
		t.Fatalf("mean trace utility %.3f not above chunk utility %.3f", tu/n, cu/n)
	}
}

func TestModeDensityOrdering(t *testing.T) {
	if !(modeDensity[mcq.ModeFocused] > modeDensity[mcq.ModeDetailed]) {
		t.Fatal("focused should out-dense detailed (paper §3.1.3)")
	}
	if chunkDensity >= modeDensity[mcq.ModeDetailed] {
		t.Fatal("chunks must be less dense than any trace mode")
	}
}

func TestQuestionFactMap(t *testing.T) {
	fx := buildFixture(t, 3)
	qf := QuestionFactMap(fx.questions)
	if len(qf) != len(fx.questions) {
		t.Fatalf("map size %d, want %d", len(qf), len(fx.questions))
	}
	for _, q := range fx.questions {
		if qf[q.ID] != q.Prov.FactID {
			t.Fatal("mapping wrong")
		}
	}
}

func BenchmarkChunkRetrieve(b *testing.B) {
	fx := buildFixture(b, 10)
	store := BuildChunkStore(nil, fx.chunks, 0)
	q := fx.questions[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = store.Retrieve(q.Question, 5)
	}
}

func BenchmarkBuildChunkStore(b *testing.B) {
	fx := buildFixture(b, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BuildChunkStore(nil, fx.chunks, 0)
	}
}

func TestChunkRetrieveBatchMatchesRetrieve(t *testing.T) {
	fx := buildFixture(t, 5)
	store := BuildChunkStore(nil, fx.chunks, 0)
	queries := make([]string, 0, 12)
	for i := 0; i < len(fx.questions) && len(queries) < 12; i++ {
		queries = append(queries, fx.questions[i].Question)
	}
	batch := store.RetrieveBatch(queries, 4)
	if len(batch) != len(queries) {
		t.Fatalf("batch returned %d groups, want %d", len(batch), len(queries))
	}
	for i, q := range queries {
		seq := store.Retrieve(q, 4)
		if len(batch[i]) != len(seq) {
			t.Fatalf("query %d: %d vs %d results", i, len(batch[i]), len(seq))
		}
		for j := range seq {
			if batch[i][j].ID != seq[j].ID || batch[i][j].Score != seq[j].Score {
				t.Fatalf("query %d rank %d: batch %q/%v vs seq %q/%v", i, j,
					batch[i][j].ID, batch[i][j].Score, seq[j].ID, seq[j].Score)
			}
		}
	}
}

func TestTraceRetrieveBatchMatchesSingleQueries(t *testing.T) {
	fx := buildFixture(t, 5)
	store := BuildTraceStore(nil, mcq.ModeFocused, fx.traces, 0)
	n := min(len(fx.questions), 10)
	queries := make([]string, n)
	excludes := make([]string, n)
	for i := 0; i < n; i++ {
		queries[i] = fx.questions[i].Question
		excludes[i] = fx.questions[i].ID
	}
	// With and without per-query self-exclusion.
	for _, withExcludes := range []bool{false, true} {
		ex := []string(nil)
		if withExcludes {
			ex = excludes
		}
		batch := store.RetrieveBatch(queries, 3, ex)
		for i := range queries {
			var one []string
			if withExcludes {
				one = excludes[i : i+1]
			}
			seq := store.RetrieveBatch(queries[i:i+1], 3, one)[0]
			if len(batch[i]) != len(seq) {
				t.Fatalf("query %d: %d vs %d results", i, len(batch[i]), len(seq))
			}
			for j := range seq {
				if batch[i][j] != seq[j] {
					t.Fatalf("query %d rank %d mismatch", i, j)
				}
			}
		}
	}
}

func TestChunkStoreWithIndexSnapshot(t *testing.T) {
	fx := buildFixture(t, 4)
	store := BuildChunkStore(nil, fx.chunks, 0)
	dir := t.TempDir()
	path := dir + "/snap.vsf"
	if err := store.SaveIndex(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := vecstore.LoadFlat(path)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := store.WithIndex(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if snap == store {
		t.Fatal("WithIndex returned the receiver, not a snapshot")
	}
	if store.Index() == snap.Index() {
		t.Fatal("snapshot shares the receiver's index")
	}
	// Same data behind both indexes → identical retrieval.
	query := fx.chunks[0].Text
	before, after := store.Retrieve(query, 3), snap.Retrieve(query, 3)
	if len(before) == 0 || len(before) != len(after) {
		t.Fatalf("result lengths %d vs %d", len(before), len(after))
	}
	for i := range before {
		if before[i].ID != after[i].ID {
			t.Fatalf("result %d: %s vs %s", i, before[i].ID, after[i].ID)
		}
	}
}

func TestWithIndexRejectsMismatch(t *testing.T) {
	fx := buildFixture(t, 2)
	store := BuildChunkStore(nil, fx.chunks, 0)
	if _, err := store.WithIndex(nil); err == nil {
		t.Fatal("nil index accepted")
	}
	if _, err := store.WithIndex(vecstore.NewFlat(7)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	// Right dimension, wrong corpus: sampled keys must resolve in byKey.
	alien := vecstore.NewFlat(embed.NewDefault().Dim())
	alien.Add(make([]float32, alien.Dim()), "not-a-chunk")
	if _, err := store.WithIndex(alien); err == nil {
		t.Fatal("foreign-corpus index accepted")
	}
	stores := TraceStores(nil, fx.traces, QuestionFactMap(fx.questions), 0)
	for _, ts := range stores {
		if _, err := ts.WithIndex(vecstore.NewFlat(7)); err == nil {
			t.Fatal("trace store dimension mismatch accepted")
		}
		break
	}
}

func TestWithIndexRejectsEmptyIndex(t *testing.T) {
	fx := buildFixture(t, 2)
	store := BuildChunkStore(nil, fx.chunks, 0)
	if _, err := store.WithIndex(vecstore.NewFlat(embed.NewDefault().Dim())); err == nil {
		t.Fatal("empty index accepted as a swap target")
	}
}
