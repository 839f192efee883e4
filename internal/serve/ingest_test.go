package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/rag"
	"repro/internal/vecstore"
)

// liveTestServer is testServer with the chunk store mounted live (mutable)
// so the add/compact endpoints work.
func liveTestServer(t testing.TB, n int, cfg Config) (*Server, *rag.ChunkStore, []chunk.Chunk) {
	t.Helper()
	chunks := testChunks(n)
	store := rag.BuildChunkStore(nil, chunks, 0)
	store.EnableLive()
	s := New(store, cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, store, chunks
}

// freshChunk makes an insert-able chunk whose text is distinct from the
// build corpus; searching its own text must rank it first (the encoder is
// deterministic, so an exact-text query scores ~1).
func freshChunk(i int) AddChunk {
	return AddChunk{
		ID:    fmt.Sprintf("live%04d", i),
		DocID: "live",
		Text:  fmt.Sprintf("freshly ingested quasar spectroscopy batch %d with drift term %d", i, i*5%17),
	}
}

// TestAddThenSearchSeesInsert is the cache-key regression test: a cached
// top-k computed BEFORE an insert must not mask the inserted chunk. An
// in-place insert bumps no epoch — only the write generation folded into
// the cache key makes the post-insert lookup miss and recompute.
func TestAddThenSearchSeesInsert(t *testing.T) {
	s, _, _ := liveTestServer(t, 32, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)

	nc := freshChunk(0)
	// Prime the cache with the exact query that should later return the
	// inserted chunk.
	before, err := c.SearchRoute(RouteChunks, nc.Text, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Results) > 0 && before.Results[0].ID == nc.ID {
		t.Fatal("insert visible before inserting")
	}
	// Confirm the priming query is actually served from cache on repeat —
	// otherwise this test wouldn't prove anything about masking.
	primed, err := c.SearchRoute(RouteChunks, nc.Text, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if !primed.Cached {
		t.Fatal("priming query not cached; regression test vehicle broken")
	}

	add, err := c.AddRoute(RouteChunks, []AddChunk{nc})
	if err != nil {
		t.Fatal(err)
	}
	if add.Added != 1 || add.Vectors != 33 || add.MemRows != 1 || add.WriteGen == 0 {
		t.Fatalf("add response %+v", add)
	}

	after, err := c.SearchRoute(RouteChunks, nc.Text, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if after.Cached {
		t.Fatal("post-insert search served from the pre-insert cache")
	}
	if len(after.Results) == 0 || after.Results[0].ID != nc.ID {
		t.Fatalf("inserted chunk not first for its own text: %+v", after.Results)
	}
	if after.Results[0].Text != nc.Text {
		t.Fatal("inserted chunk text not carried on the wire")
	}
}

// TestAddValidation pins the write endpoint's rejections: non-live routes,
// empty batches, oversized batches, duplicate ids (in-batch, vs the build
// corpus, and vs a previous insert) — all without partial inserts.
func TestAddValidation(t *testing.T) {
	s, _, chunks := liveTestServer(t, 16, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)

	wantStatus := func(err error, code int, what string) {
		t.Helper()
		se, ok := err.(*StatusError)
		if !ok {
			t.Fatalf("%s: err %v, want StatusError %d", what, err, code)
		}
		if se.Status != code {
			t.Fatalf("%s: status %d, want %d", what, se.Status, code)
		}
	}
	_, err := c.AddRoute(RouteChunks, nil)
	wantStatus(err, 400, "empty batch")
	// One past maxBatchItems; its ids include the 6 and 7 inserted below,
	// so a partial insert would fail those steps.
	oversize := make([]AddChunk, maxBatchItems+1)
	for i := range oversize {
		oversize[i] = freshChunk(i + 1)
	}
	_, err = c.AddRoute(RouteChunks, oversize)
	wantStatus(err, 413, "oversized batch")
	_, err = c.AddRoute(RouteChunks, []AddChunk{freshChunk(6), freshChunk(6)})
	wantStatus(err, 400, "in-batch duplicate")
	_, err = c.AddRoute(RouteChunks, []AddChunk{{ID: chunks[0].ID, Text: "shadowing the corpus"}})
	wantStatus(err, 400, "corpus-duplicate id")
	_, err = c.AddRoute(RouteChunks, []AddChunk{{ID: "noText"}})
	wantStatus(err, 400, "empty text")
	if _, err := c.AddRoute(RouteChunks, []AddChunk{freshChunk(7)}); err != nil {
		t.Fatalf("valid insert rejected: %v", err)
	}
	_, err = c.AddRoute(RouteChunks, []AddChunk{freshChunk(7)})
	wantStatus(err, 400, "re-inserting an inserted id")

	// A route mounted over a non-live store must refuse writes.
	plain := NewMulti(DefaultConfig())
	if err := plain.Mount(RouteChunks, rag.NewChunkFacade(rag.BuildChunkStore(nil, testChunks(8), 0))); err != nil {
		t.Fatal(err)
	}
	if err := plain.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plain.Close() })
	pc := NewClient("http://"+plain.Addr(), nil)
	_, err = pc.AddRoute(RouteChunks, []AddChunk{freshChunk(8)})
	wantStatus(err, 400, "non-live route")
}

// TestCompactEndpoint drains the memtable over HTTP and checks the swap
// was published (epoch bump, memtable empty, Stats kind still Live) and
// that compacted inserts stay retrievable.
func TestCompactEndpoint(t *testing.T) {
	s, store, _ := liveTestServer(t, 24, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)

	var inserted []AddChunk
	for i := 0; i < 5; i++ {
		inserted = append(inserted, freshChunk(i))
	}
	if _, err := c.AddRoute(RouteChunks, inserted); err != nil {
		t.Fatal(err)
	}
	cr, err := c.CompactRoute(RouteChunks)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Compacted || cr.Epoch != 1 || cr.MemRows != 0 || cr.Vectors != 29 {
		t.Fatalf("compact response %+v", cr)
	}
	// Compacting an empty memtable is a clean no-op, not an error.
	cr2, err := c.CompactRoute(RouteChunks)
	if err != nil {
		t.Fatal(err)
	}
	if cr2.Compacted || cr2.Epoch != 1 {
		t.Fatalf("empty compact response %+v", cr2)
	}
	for _, nc := range inserted {
		resp, err := c.SearchRoute(RouteChunks, nc.Text, 1, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 1 || resp.Results[0].ID != nc.ID {
			t.Fatalf("compacted insert %q not retrievable: %+v", nc.ID, resp.Results)
		}
	}
	// The published index is still a Live layer over the grown base.
	snap := s.routes[RouteChunks].snap.Load()
	lv, ok := snap.Store.(rag.Swapper).Index().(*vecstore.Live)
	if !ok {
		t.Fatalf("post-compaction index is %T, want *vecstore.Live", snap.Store.(rag.Swapper).Index())
	}
	if lv.Base().Len() != 29 || lv.MemLen() != 0 {
		t.Fatalf("post-compaction base=%d mem=%d", lv.Base().Len(), lv.MemLen())
	}
	_ = store
}

// TestSwapKeepsLiveRouteWritable: a hot swap on a live route publishes the
// swapped-in Flat under a fresh memtable, so the route still accepts
// inserts and still compacts. The uncompacted insert made before the swap
// is not in the swapped-in file and leaves with the old corpus.
func TestSwapKeepsLiveRouteWritable(t *testing.T) {
	s, store, _ := liveTestServer(t, 24, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)
	path := filepath.Join(t.TempDir(), "chunks.vsf")
	if err := store.Index().(*vecstore.Live).Base().Save(path); err != nil {
		t.Fatal(err)
	}

	before, after := freshChunk(0), freshChunk(1)
	if _, err := c.AddRoute(RouteChunks, []AddChunk{before}); err != nil {
		t.Fatal(err)
	}
	if sw, err := c.SwapRoute(RouteChunks, path); err != nil || sw.Epoch != 1 {
		t.Fatalf("swap: %+v, %v", sw, err)
	}
	if rows := s.routes[RouteChunks].gMemRows.Value(); rows != 0 {
		t.Fatalf("index.memrows reads %d after the swap, want 0", rows)
	}
	add, err := c.AddRoute(RouteChunks, []AddChunk{after})
	if err != nil {
		t.Fatalf("insert after swap: %v", err)
	}
	if add.MemRows != 1 || add.Vectors != 25 {
		t.Fatalf("add response after swap %+v", add)
	}
	resp, err := c.SearchRoute(RouteChunks, after.Text, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID != after.ID {
		t.Fatalf("insert after swap not retrieved first: %+v", resp.Results)
	}
	resp, err = c.SearchRoute(RouteChunks, before.Text, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) == 1 && resp.Results[0].ID == before.ID {
		t.Fatal("an uncompacted pre-swap insert survived the swap")
	}

	cr, err := c.CompactRoute(RouteChunks)
	if err != nil {
		t.Fatal(err)
	}
	if !cr.Compacted || cr.Epoch != 2 || cr.MemRows != 0 || cr.Vectors != 25 {
		t.Fatalf("compact after swap %+v", cr)
	}
	resp, err = c.SearchRoute(RouteChunks, after.Text, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 1 || resp.Results[0].ID != after.ID {
		t.Fatalf("compacted insert not retrievable: %+v", resp.Results)
	}
}

// TestAutoCompaction checks the CompactAt trigger: once the memtable
// reaches the threshold, a background compaction publishes without any
// admin call.
func TestAutoCompaction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CompactAt = 8
	s, _, _ := liveTestServer(t, 16, cfg)
	c := NewClient("http://"+s.Addr(), nil)

	var batch []AddChunk
	for i := 0; i < 10; i++ {
		batch = append(batch, freshChunk(i))
	}
	if _, err := c.AddRoute(RouteChunks, batch); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		snap := s.routes[RouteChunks].snap.Load()
		lv := snap.Store.(rag.Swapper).Index().(*vecstore.Live)
		if snap.Epoch >= 1 && lv.MemLen() == 0 && snap.Source == "compaction" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto compaction never published: epoch=%d mem=%d", snap.Epoch, lv.MemLen())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Inserts stay visible across the background publish.
	for _, nc := range batch {
		resp, err := c.SearchRoute(RouteChunks, nc.Text, 1, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != 1 || resp.Results[0].ID != nc.ID {
			t.Fatalf("insert %q lost across auto compaction", nc.ID)
		}
	}
}

// TestCompactionDrainsBurstsWithoutFurtherAdds: concurrent writers add
// bursts of CompactAt rows, then nothing more is added. A burst that
// lands while a compaction runs has its own trigger declined, so only the
// re-check after each compaction can drain it; the memtable must drop
// below CompactAt with no further add.
func TestCompactionDrainsBurstsWithoutFurtherAdds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CompactAt = 4
	s, _, _ := liveTestServer(t, 16, cfg)

	const writers, bursts = 4, 6
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < bursts; b++ {
				burst := make([]chunk.Chunk, cfg.CompactAt)
				for i := range burst {
					burst[i] = chunk.Chunk{
						ID:   fmt.Sprintf("burst-%d-%d-%d", w, b, i),
						Text: fmt.Sprintf("burst ingest writer %d round %d row %d", w, b, i),
					}
				}
				if _, err := s.AddChunks(RouteChunks, burst); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mem := memRows(s.routes[RouteChunks].snap.Load())
		if mem < cfg.CompactAt {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d memtable rows (CompactAt %d) still waiting 5s after the last add", mem, cfg.CompactAt)
		}
	}
	if want := 16 + writers*bursts*cfg.CompactAt; s.routes[RouteChunks].snap.Load().Store.Len() != want {
		t.Fatalf("store has %d vectors, want %d", s.routes[RouteChunks].snap.Load().Store.Len(), want)
	}
}

// TestIngestConcurrentAddSearchCompact is the serving-layer race hammer:
// programmatic writers, searchers and a compactor loop hit one route
// concurrently; afterwards compactions must have published, the final
// drain must leave the memtable empty, and every acked insert must be
// retrievable by its own text. Runs under `make race` via the serve
// package.
func TestIngestConcurrentAddSearchCompact(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CompactAt = 16 // exercise the add-triggered background path too
	s, _, chunks := liveTestServer(t, 32, cfg)

	const writers, perWriter, searchers = 3, 40, 2
	ackedTexts := make([][]string, writers)
	stop := make(chan struct{})
	var bg sync.WaitGroup

	for g := 0; g < searchers; g++ {
		bg.Add(1)
		go func(g int) {
			defer bg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, _, err := s.SearchRoute(context.Background(), RouteChunks, chunks[(g+i)%len(chunks)].Text, 5, ""); err != nil {
					t.Errorf("search: %v", err)
					return
				}
			}
		}(g)
	}
	bg.Add(1)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.CompactRoute(RouteChunks); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				nc := chunk.Chunk{
					ID:   fmt.Sprintf("w%d-%03d", w, i),
					Text: fmt.Sprintf("concurrent ingest stream %d item %d payload %d", w, i, (w*perWriter+i)*3%23),
				}
				if _, err := s.AddChunks(RouteChunks, []chunk.Chunk{nc}); err != nil {
					t.Errorf("add: %v", err)
					return
				}
				ackedTexts[w] = append(ackedTexts[w], nc.Text)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	bg.Wait()
	if t.Failed() {
		return
	}
	// Quiesce includes the add-triggered background compaction: compact
	// runs one at a time, so the final drain below would be declined
	// beside one still in flight.
	rt, err := s.route(RouteChunks)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); rt.compacting.Load(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("background compaction still running 10s after the last insert")
		}
	}

	// Final drain, then audit every acked insert.
	if _, err := s.CompactRoute(RouteChunks); err != nil {
		t.Fatal(err)
	}
	snap := s.routes[RouteChunks].snap.Load()
	if want := 32 + writers*perWriter; snap.Store.Len() != want {
		t.Fatalf("store has %d vectors after quiesce, want %d", snap.Store.Len(), want)
	}
	if n := s.Registry().Snapshot().Counter(MetricPrefix(RouteChunks) + "compactions"); n < 1 {
		t.Fatalf("%d compactions published while %d inserts landed", n, writers*perWriter)
	}
	if lv := snap.Store.(rag.Swapper).Index().(*vecstore.Live); lv.MemLen() != 0 {
		t.Fatalf("%d memtable rows left after the final drain", lv.MemLen())
	}
	for w, texts := range ackedTexts {
		for i, text := range texts {
			res, _, _, err := s.SearchRoute(context.Background(), RouteChunks, text, 1, "")
			if err != nil {
				t.Fatal(err)
			}
			wantID := fmt.Sprintf("w%d-%03d", w, i)
			if len(res) != 1 || res[0].ID != wantID {
				t.Fatalf("acked insert %s not retrievable by its text", wantID)
			}
		}
	}
}
