package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/rag"
	"repro/internal/vecstore"
)

// testChunks builds n synthetic chunks with distinct, retrievable texts
// (the hash-based embedder only needs token overlap, not semantics).
func testChunks(n int) []chunk.Chunk {
	topics := []string{"galaxy rotation curves", "stellar nucleosynthesis yields",
		"exoplanet transit photometry", "cosmic microwave background anisotropy",
		"interstellar dust extinction", "supernova light curve decay"}
	out := make([]chunk.Chunk, n)
	for i := range out {
		out[i] = chunk.Chunk{
			ID:    fmt.Sprintf("c%04d", i),
			DocID: fmt.Sprintf("d%03d", i/8),
			Index: i % 8,
			Text: fmt.Sprintf("%s measurement series %d with calibration run %d and residual %d",
				topics[i%len(topics)], i, i*7%13, i*3%11),
			Tokens: 12,
		}
	}
	return out
}

func testServer(t testing.TB, n int, cfg Config) (*Server, *rag.ChunkStore, []chunk.Chunk) {
	t.Helper()
	chunks := testChunks(n)
	store := rag.BuildChunkStore(nil, chunks, 0)
	s := New(store, cfg)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, store, chunks
}

func TestSearchEndToEnd(t *testing.T) {
	s, _, chunks := testServer(t, 64, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)

	hz, err := c.HealthzCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rh, ok := hz.Routes[RouteChunks]; hz.Status != "ok" || !ok || rh.Vectors != 64 || rh.Epoch != 0 || rh.Source != "initial" {
		t.Fatalf("healthz %+v", hz)
	}

	// Querying a chunk's own text must return that chunk first.
	resp, err := c.SearchRoute(RouteChunks, chunks[17].Text, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Route != RouteChunks || len(resp.Results) != 3 || resp.Results[0].ID != chunks[17].ID {
		t.Fatalf("response %+v", resp)
	}
	if resp.Results[0].Text != chunks[17].Text {
		t.Fatal("chunk text not carried on the wire")
	}
	if resp.Results[0].Group != chunks[17].DocID {
		t.Fatal("doc id not carried on the wire")
	}

	// Batch endpoint answers in query order.
	bresp, err := c.SearchRouteBatchCtx(context.Background(), RouteChunks, []string{chunks[3].Text, chunks[40].Text}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != 2 ||
		bresp.Results[0][0].ID != chunks[3].ID ||
		bresp.Results[1][0].ID != chunks[40].ID {
		t.Fatalf("batch results %+v", bresp.Results)
	}

	mtext, err := c.MetricsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counter serve.chunks.requests", "histogram serve.chunks.batch.size", "gauge serve.chunks.index.vectors 64", "gauge serve.chunks.coalesce_window_us "} {
		if !strings.Contains(mtext, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, mtext)
		}
	}
}

func TestCoalescingUnderConcurrentClients(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheCap = 0 // every request must reach the kernel
	cfg.MaxDelay = 3 * time.Millisecond
	s, _, chunks := testServer(t, 128, cfg)
	c := NewClient("http://"+s.Addr(), nil)

	const clients = 48
	queries := make([]string, clients*8)
	for i := range queries {
		queries[i] = chunks[i%len(chunks)].Text + fmt.Sprintf(" variant %d", i)
	}
	rep := RunLoad(LoadConfig{Concurrency: clients, Requests: len(queries), Queries: queries, K: 4},
		func(q string, k int) error {
			_, err := c.SearchRoute(RouteChunks, q, k, "")
			return err
		})
	if rep.Failures != 0 {
		t.Fatalf("%d failed requests", rep.Failures)
	}
	snap := s.Registry().Snapshot()
	batches, queued := snap.Counter("serve.chunks.batches"), snap.Counter("serve.chunks.batch.queries")
	if queued != int64(len(queries)) {
		t.Fatalf("batched queries %d, want %d", queued, len(queries))
	}
	mean := float64(queued) / float64(batches)
	if mean <= 1 {
		t.Fatalf("no coalescing under %d concurrent clients: %d batches for %d queries (mean %.2f)",
			clients, batches, queued, mean)
	}
	if snap.Histograms["serve.chunks.batch.size"].Total != batches {
		t.Fatal("batch-size histogram out of sync with batch counter")
	}
	t.Logf("mean batch %.2f over %d batches, qps %.0f", mean, batches, rep.QPS)
}

func TestCacheHitMissAccounting(t *testing.T) {
	s, _, chunks := testServer(t, 32, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)

	first, err := c.SearchRoute(RouteChunks, chunks[5].Text, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first lookup reported cached")
	}
	second, err := c.SearchRoute(RouteChunks, chunks[5].Text, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeat lookup not served from cache")
	}
	if len(first.Results) != len(second.Results) || first.Results[0].ID != second.Results[0].ID {
		t.Fatal("cached result differs from computed one")
	}
	// Different k is a different cache entry.
	if _, err := c.SearchRoute(RouteChunks, chunks[5].Text, 5, ""); err != nil {
		t.Fatal(err)
	}
	snap := s.Registry().Snapshot()
	if h, m := snap.Counter("serve.chunks.cache.hits"), snap.Counter("serve.chunks.cache.misses"); h != 1 || m != 2 {
		t.Fatalf("hits=%d misses=%d, want 1/2", h, m)
	}
}

func TestHotSwapUnderLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDelay = 500 * time.Microsecond
	s, store, chunks := testServer(t, 96, cfg)

	// Two on-disk generations of the same corpus: the initial flat index
	// and a second copy (what a rebuilt/retrained index deploy looks like).
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.vsf")
	pathB := filepath.Join(dir, "b.vsf")
	if err := store.SaveIndex(pathA); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveIndex(pathB); err != nil {
		t.Fatal(err)
	}

	c := NewClient("http://"+s.Addr(), nil)
	stop := make(chan struct{})
	var failures, requests, torn atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := chunks[(w*31+i)%len(chunks)]
				resp, err := c.SearchRoute(RouteChunks, q.Text, 3, "")
				requests.Add(1)
				if err != nil {
					failures.Add(1)
					continue
				}
				// Consistency across swaps: both generations hold the same
				// corpus, so the top hit is always the queried chunk.
				if len(resp.Results) == 0 || resp.Results[0].ID != q.ID {
					torn.Add(1)
				}
			}
		}(w)
	}

	const swaps = 6
	paths := [2]string{pathA, pathB}
	for i := 0; i < swaps; i++ {
		time.Sleep(5 * time.Millisecond)
		snap, err := s.SwapFromFile(paths[i%2])
		if err != nil {
			t.Fatal(err)
		}
		if snap.Epoch != uint64(i+1) {
			t.Fatalf("epoch %d after swap %d", snap.Epoch, i+1)
		}
	}
	time.Sleep(5 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := failures.Load(); n != 0 {
		t.Fatalf("%d failed requests across %d during hot swaps", n, requests.Load())
	}
	if n := torn.Load(); n != 0 {
		t.Fatalf("%d inconsistent results across %d during hot swaps", n, requests.Load())
	}
	reg := s.Registry().Snapshot()
	if reg.Counter("serve.chunks.swaps") != swaps || reg.Gauge("serve.chunks.index.epoch") != swaps {
		t.Fatalf("swap accounting: swaps=%d epoch=%d",
			reg.Counter("serve.chunks.swaps"), reg.Gauge("serve.chunks.index.epoch"))
	}
	t.Logf("%d requests, %d swaps, zero failures", requests.Load(), swaps)
}

func TestSwapRejectsBadInput(t *testing.T) {
	s, _, chunks := testServer(t, 16, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)
	if _, err := c.SwapRoute(RouteChunks, filepath.Join(t.TempDir(), "missing.vsf")); err == nil {
		t.Fatal("swap from a missing file succeeded")
	}
	// VSF4 (IVF-PQ) is retired: its magic is refused like any unknown one.
	v4 := filepath.Join(t.TempDir(), "ivfpq.vsf")
	if err := os.WriteFile(v4, []byte("VSF4\x08\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SwapRoute(RouteChunks, v4); err == nil {
		t.Fatal("swap from a VSF4 file succeeded")
	}
	// So is VSF5 (HNSW): a route swaps in only a VSF2 Flat.
	v5 := filepath.Join(t.TempDir(), "hnsw.vsf")
	if err := os.WriteFile(v5, []byte("VSF5\x08\x00\x00\x00\x04\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SwapRouteFromFile(RouteChunks, v5); !errors.Is(err, vecstore.ErrBadFormat) {
		t.Fatalf("swap from a VSF5 file: %v, want ErrBadFormat", err)
	}
	if _, err := c.SwapRoute(RouteChunks, v5); err == nil {
		t.Fatal("swap from a VSF5 file succeeded over HTTP")
	}
	if _, err := s.SwapRouteIndex(RouteChunks, vecstore.NewFlat(7), "bad-dim"); err == nil {
		t.Fatal("swap to a mismatched index succeeded")
	}
	// Same dimension, different corpus: keys don't resolve in the store's
	// metadata, which would silently serve empty results.
	foreign := vecstore.NewFlat(s.routes[RouteChunks].snap.Load().Store.(rag.Swapper).Index().Dim())
	foreign.Add(make([]float32, foreign.Dim()), "alien-0001")
	if _, err := s.SwapRouteIndex(RouteChunks, foreign, "foreign"); err == nil {
		t.Fatal("foreign-corpus index accepted")
	}
	if got := s.routes[RouteChunks].snap.Load().Epoch; got != 0 {
		t.Fatalf("failed swaps advanced the epoch to %d", got)
	}
	// Still serving.
	if _, err := c.SearchRoute(RouteChunks, chunks[0].Text, 1, ""); err != nil {
		t.Fatal(err)
	}
}

func TestGracefulShutdownDrainsInFlight(t *testing.T) {
	cfg := DefaultConfig()
	// A wide admission window parks the request inside the coalescer, so
	// shutdown provably overlaps an in-flight request.
	cfg.MaxDelay = 50 * time.Millisecond
	cfg.MaxBatch = 64
	s, _, chunks := testServer(t, 16, cfg)
	c := NewClient("http://"+s.Addr(), nil)

	done := make(chan error, 1)
	go func() {
		resp, err := c.SearchRoute(RouteChunks, chunks[1].Text, 2, "")
		if err == nil && len(resp.Results) == 0 {
			err = fmt.Errorf("empty results")
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // request is now waiting for batchmates
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight request dropped across shutdown: %v", err)
	}
}

func TestSearchDirectAPI(t *testing.T) {
	// The programmatic path: no HTTP, same cache and coalescer.
	chunks := testChunks(32)
	store := rag.BuildChunkStore(nil, chunks, 0)
	s := New(store, DefaultConfig())
	defer s.Close()
	res, cached, epoch, err := s.SearchRoute(context.Background(), RouteChunks, chunks[9].Text, 2, "")
	if err != nil || cached || epoch != 0 || len(res) != 2 || res[0].ID != chunks[9].ID {
		t.Fatalf("res=%v cached=%v epoch=%d err=%v", res, cached, epoch, err)
	}
	res2, cached2, epoch2, err := s.SearchRoute(context.Background(), RouteChunks, chunks[9].Text, 2, "")
	if err != nil || !cached2 || epoch2 != 0 || res2[0].ID != chunks[9].ID {
		t.Fatalf("repeat: cached=%v epoch=%d err=%v", cached2, epoch2, err)
	}
}

func TestCancelledLeaderDoesNotPoisonJoiners(t *testing.T) {
	cfg := DefaultConfig()
	// A wide admission window keeps the flight open long enough for the
	// leader to be cancelled while a joiner is attached.
	cfg.MaxDelay = 30 * time.Millisecond
	cfg.MaxBatch = 64
	s := New(rag.BuildChunkStore(nil, testChunks(16), 0), cfg)
	defer s.Close()
	chunks := testChunks(16)

	lctx, lcancel := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, _, err := s.SearchRoute(lctx, RouteChunks, chunks[2].Text, 2, "")
		leaderDone <- err
	}()
	for { // wait until the leader's flight is registered
		s.routes[RouteChunks].flights.mu.Lock()
		n := len(s.routes[RouteChunks].flights.m)
		s.routes[RouteChunks].flights.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	lcancel() // the leader's client disconnects mid-flight

	res, _, _, err := s.SearchRoute(context.Background(), RouteChunks, chunks[2].Text, 2, "")
	if err != nil {
		t.Fatalf("healthy joiner poisoned by leader cancellation: %v", err)
	}
	if len(res) == 0 || res[0].ID != chunks[2].ID {
		t.Fatalf("joiner results %v", res)
	}
	// The flight itself ran detached, so even the leader gets the result.
	if err := <-leaderDone; err != nil {
		t.Fatalf("leader: %v", err)
	}
}

// TestBatchEndpointBounded pins maxBatchItems on batch search: a batch of
// exactly the bound (1024) is served, one more query is refused with 413.
func TestBatchEndpointBounded(t *testing.T) {
	s, _, chunks := testServer(t, 16, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)
	queries := make([]string, maxBatchItems+1)
	for i := range queries {
		queries[i] = chunks[i%len(chunks)].Text
	}
	if _, err := c.SearchRouteBatchCtx(context.Background(), RouteChunks, queries[:maxBatchItems], 2, nil); err != nil {
		t.Fatal(err)
	}
	_, err := c.SearchRouteBatchCtx(context.Background(), RouteChunks, queries, 2, nil)
	if err == nil || !strings.Contains(err.Error(), "413") || !strings.Contains(err.Error(), "exceeds limit 1024") {
		t.Fatalf("oversized batch not rejected at 1024: %v", err)
	}
}

// TestRequestDepthDefaultAndBound pins defaultK and maxK on both search
// endpoints: over a store deeper than maxK, an omitted k returns defaultK
// hits and a k past the bound returns maxK.
func TestRequestDepthDefaultAndBound(t *testing.T) {
	s, _, chunks := testServer(t, maxK+28, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)
	ctx := context.Background()
	for _, tc := range []struct{ k, want int }{{0, 5}, {1000, 100}} {
		one, err := c.SearchRoute(RouteChunks, chunks[3].Text, tc.k, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(one.Results) != tc.want {
			t.Errorf("/search k=%d: %d hits, want %d", tc.k, len(one.Results), tc.want)
		}
		batch, err := c.SearchRouteBatchCtx(ctx, RouteChunks, []string{chunks[3].Text, chunks[4].Text}, tc.k, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, hits := range batch.Results {
			if len(hits) != tc.want {
				t.Errorf("/search/batch k=%d query %d: %d hits, want %d", tc.k, i, len(hits), tc.want)
			}
		}
	}
}

// TestUnroutedPathsAre404 pins the one URL namespace: the chunk store is
// reachable at /v1/chunks/... like every other route, and the bare
// single-store paths do not exist.
func TestUnroutedPathsAre404(t *testing.T) {
	s, _, chunks := testServer(t, 8, DefaultConfig())
	for _, path := range []string{`/v1/search`, `/v1/search/batch`, `/admin/swap`} {
		resp, err := http.Post("http://"+s.Addr()+path, "application/json",
			strings.NewReader(fmt.Sprintf(`{"query":%q,"queries":[%q],"path":"x.vsf"}`, chunks[0].Text, chunks[0].Text)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
