package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/mcq"
	"repro/internal/rag"
)

// testTraces builds 3 traces (one per mode) for each of n synthetic
// questions, with distinct retrievable reasoning texts.
func testTraces(n int) ([]*mcq.Trace, map[string]string) {
	topics := []string{"spectral line broadening", "magnetar flare energetics",
		"protoplanetary disk chemistry", "tidal disruption events"}
	qf := make(map[string]string, n)
	var traces []*mcq.Trace
	for i := 0; i < n; i++ {
		qid := fmt.Sprintf("q%03d", i)
		qf[qid] = fmt.Sprintf("f%03d", i)
		for _, mode := range mcq.AllModes {
			traces = append(traces, &mcq.Trace{
				ID:             fmt.Sprintf("t-%s-%03d", mode, i),
				QuestionID:     qid,
				Mode:           mode,
				Model:          "test-teacher",
				Reasoning:      fmt.Sprintf("%s analysis of %s case %d with elimination step %d", mode, topics[i%len(topics)], i, i*5%17),
				AnswerExcluded: true,
			})
		}
	}
	return traces, qf
}

// testMultiServer mounts the chunk store and all three trace stores.
func testMultiServer(t testing.TB, nChunks, nQuestions int, cfg Config) (*Server, *rag.ChunkStore, map[mcq.ReasoningMode]*rag.TraceStore, []*mcq.Trace) {
	t.Helper()
	store := rag.BuildChunkStore(nil, testChunks(nChunks), 0)
	traces, qf := testTraces(nQuestions)
	stores := rag.TraceStores(nil, traces, qf, 0)
	s := New(store, cfg)
	if err := s.MountTraceStores(stores); err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, store, stores, traces
}

func TestMultiStoreRoutes(t *testing.T) {
	s, _, _, traces := testMultiServer(t, 32, 12, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)

	want := []string{"chunks", "traces/detailed", "traces/efficient", "traces/focused"}
	if got := strings.Join(s.Routes(), " "); got != strings.Join(want, " ") {
		t.Fatalf("routes %q", got)
	}

	// Each trace mode answers on its own route, top hit = the queried
	// trace, with the source-question id carried as the group.
	for _, tr := range []*mcq.Trace{traces[0], traces[1], traces[2]} {
		resp, err := c.SearchRoute(TraceRoute(tr.Mode), tr.Reasoning, 3, "")
		if err != nil {
			t.Fatal(err)
		}
		if resp.Route != "traces/"+string(tr.Mode) {
			t.Fatalf("route label %q for mode %s", resp.Route, tr.Mode)
		}
		if len(resp.Results) == 0 || resp.Results[0].ID != tr.ID || resp.Results[0].Group != tr.QuestionID {
			t.Fatalf("mode %s results %+v", tr.Mode, resp.Results)
		}
	}

	// The question self-exclusion suppresses the trace's own question.
	tr := traces[0]
	resp, err := c.SearchRoute(TraceRoute(tr.Mode), tr.Reasoning, 3, tr.QuestionID)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resp.Results {
		if r.Group == tr.QuestionID {
			t.Fatalf("excluded question %s leaked into results", tr.QuestionID)
		}
	}

	// Batch variant on a trace route, per-query exclusion.
	tr2 := traces[3] // same mode as traces[0] (AllModes cycle per question)
	bresp, err := c.SearchRouteBatchCtx(context.Background(), "traces/"+string(tr.Mode),
		[]string{tr.Reasoning, tr2.Reasoning}, 2, []string{"", tr2.QuestionID})
	if err != nil {
		t.Fatal(err)
	}
	if len(bresp.Results) != 2 || bresp.Results[0][0].ID != tr.ID {
		t.Fatalf("batch results %+v", bresp.Results)
	}
	for _, r := range bresp.Results[1] {
		if r.Group == tr2.QuestionID {
			t.Fatal("batch exclusion ignored")
		}
	}

	// Healthz reports every route; metrics are namespaced per route.
	hz, err := c.HealthzCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hz.Routes) != 4 {
		t.Fatalf("healthz routes %+v", hz.Routes)
	}
	mtext, err := c.MetricsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, wantM := range []string{"counter serve.chunks.requests", "counter serve.traces.detailed.requests",
		"gauge serve.traces.focused.index.epoch", "histogram serve.traces.efficient.batch.size"} {
		if !strings.Contains(mtext, wantM) {
			t.Fatalf("/metrics missing %q", wantM)
		}
	}

	// Request accounting is per route: the 1 + 1 + 2-query-batch sent to
	// traces[0]'s mode, one search on each other mode, none on chunks.
	reg := s.Registry().Snapshot()
	for route, wantN := range map[string]int64{RouteChunks: 0, TraceRoute(tr.Mode): 4,
		TraceRoute(traces[1].Mode): 1, TraceRoute(traces[2].Mode): 1} {
		if n := reg.Counter(MetricPrefix(route) + "requests"); n != wantN {
			t.Fatalf("route %s counted %d requests, want %d", route, n, wantN)
		}
	}

	// Unknown routes are errors, not silent chunk fallbacks.
	if _, _, _, err := s.SearchRoute(context.Background(), "nope", "x", 1, ""); err == nil {
		t.Fatal("unknown route accepted")
	}
	if _, err := c.SearchRoute("nope", "x", 1, ""); err == nil {
		t.Fatal("unknown route served over HTTP")
	}
}

func TestCacheKeyCollisionAcrossExcludeAndQuery(t *testing.T) {
	// exclude and query are both client-controlled free-form strings; a
	// bare delimiter between them would make ("a", "b\x1fc") and
	// ("a\x1fb", "c") share one cache key, serving one pair's results for
	// the other. The length-prefixed key must keep them distinct.
	s, _, _, _ := testMultiServer(t, 16, 4, DefaultConfig())
	ctx := context.Background()
	if _, cached, _, err := s.SearchRoute(ctx, "traces/detailed", "b\x1fc", 3, "a"); err != nil || cached {
		t.Fatalf("first pair: cached=%v err=%v", cached, err)
	}
	if _, cached, _, err := s.SearchRoute(ctx, "traces/detailed", "c", 3, "a\x1fb"); err != nil || cached {
		t.Fatalf("colliding pair served from the other pair's cache entry: cached=%v err=%v", cached, err)
	}
	// Sanity: the genuinely identical request does hit.
	if _, cached, _, err := s.SearchRoute(ctx, "traces/detailed", "b\x1fc", 3, "a"); err != nil || !cached {
		t.Fatalf("identical repeat not cached: cached=%v err=%v", cached, err)
	}
}

func TestPerRouteSwapIsolation(t *testing.T) {
	s, store, stores, traces := testMultiServer(t, 48, 10, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)
	dir := t.TempDir()

	chunkVSF := filepath.Join(dir, "chunks.vsf")
	if err := store.SaveIndex(chunkVSF); err != nil {
		t.Fatal(err)
	}
	traceVSF := filepath.Join(dir, "detailed.vsf")
	if err := stores[mcq.ModeDetailed].SaveIndex(traceVSF); err != nil {
		t.Fatal(err)
	}

	// Warm one entry per route.
	var detailed *mcq.Trace
	for _, tr := range traces {
		if tr.Mode == mcq.ModeDetailed {
			detailed = tr
			break
		}
	}
	chunkQ := testChunks(48)[7].Text
	for i := 0; i < 2; i++ {
		if _, err := c.SearchRoute(RouteChunks, chunkQ, 3, ""); err != nil {
			t.Fatal(err)
		}
		if _, err := c.SearchRoute(TraceRoute(mcq.ModeDetailed), detailed.Reasoning, 3, ""); err != nil {
			t.Fatal(err)
		}
	}

	// Swapping the chunk route must not purge the trace route's cache or
	// touch its epoch.
	swap, err := c.SwapRoute("chunks", chunkVSF)
	if err != nil {
		t.Fatal(err)
	}
	if swap.Route != "chunks" || swap.Epoch != 1 {
		t.Fatalf("swap response %+v", swap)
	}
	tresp, err := c.SearchRoute(TraceRoute(mcq.ModeDetailed), detailed.Reasoning, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if !tresp.Cached || tresp.Epoch != 0 {
		t.Fatalf("trace entry went cold across a chunk swap: cached=%v epoch=%d", tresp.Cached, tresp.Epoch)
	}
	// The chunk route's own cache was purged (fresh lookup misses).
	cresp, err := c.SearchRoute(RouteChunks, chunkQ, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if cresp.Cached || cresp.Epoch != 1 {
		t.Fatalf("chunk cache survived its own swap: cached=%v epoch=%d", cresp.Cached, cresp.Epoch)
	}

	// And symmetrically: swap the detailed trace route, chunks stay warm.
	if _, err := c.SearchRoute(RouteChunks, chunkQ, 3, ""); err != nil { // re-warm under epoch 1
		t.Fatal(err)
	}
	tswap, err := c.SwapRoute("traces/detailed", traceVSF)
	if err != nil {
		t.Fatal(err)
	}
	if tswap.Epoch != 1 || tswap.Route != "traces/detailed" {
		t.Fatalf("trace swap %+v", tswap)
	}
	cresp, err = c.SearchRoute(RouteChunks, chunkQ, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if !cresp.Cached || cresp.Epoch != 1 {
		t.Fatalf("chunk entry went cold across a trace swap: cached=%v epoch=%d", cresp.Cached, cresp.Epoch)
	}
	// Per-route epochs are independent counters.
	snapC, _ := s.RouteSnapshot("chunks")
	snapD, _ := s.RouteSnapshot("traces/detailed")
	snapF, _ := s.RouteSnapshot("traces/focused")
	if snapC.Epoch != 1 || snapD.Epoch != 1 || snapF.Epoch != 0 {
		t.Fatalf("epochs chunks=%d detailed=%d focused=%d", snapC.Epoch, snapD.Epoch, snapF.Epoch)
	}
}

func TestStaleFillDoesNotSquatAfterSwap(t *testing.T) {
	// A fill that is still in flight when a swap purges the cache must
	// not leave an entry keyed under the dead epoch.
	cfg := DefaultConfig()
	cfg.MaxDelay = 40 * time.Millisecond // park the fill in the coalescer
	cfg.MaxBatch = 64
	s, store, chunks := testServer(t, 24, cfg)
	vsf := filepath.Join(t.TempDir(), "gen2.vsf")
	if err := store.SaveIndex(vsf); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, _, _, err := s.SearchRoute(context.Background(), RouteChunks, chunks[4].Text, 2, "")
		done <- err
	}()
	for { // wait until the fill's flight is registered
		s.routes[RouteChunks].flights.mu.Lock()
		n := len(s.routes[RouteChunks].flights.m)
		s.routes[RouteChunks].flights.mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	if _, err := s.SwapFromFile(vsf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if n := s.routes[RouteChunks].cache.Len(); n != 0 {
		t.Fatalf("%d dead-epoch entries squatting the cache after swap", n)
	}
	// A fresh lookup misses, then fills under the live epoch.
	if _, cached, epoch, err := s.SearchRoute(context.Background(), RouteChunks, chunks[4].Text, 2, ""); err != nil || cached || epoch != 1 {
		t.Fatalf("post-swap lookup cached=%v epoch=%d err=%v", cached, epoch, err)
	}
	if n := s.routes[RouteChunks].cache.Len(); n != 1 {
		t.Fatalf("cache len %d after live-epoch fill", n)
	}
}

// TestSwapSearchRaceConsistency hammers Search across repeated hot swaps
// (run under -race via `make race`) and asserts: (a) every response is
// answered from exactly one snapshot — the top hit is always the queried
// chunk and the epoch label never exceeds the published epoch; (b) the
// cache never exceeds its configured capacity and no entry survives under
// a dead epoch; (c) per-route caches are isolated — the trace routes stay
// warm through every chunk swap.
func TestSwapSearchRaceConsistency(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxDelay = 300 * time.Microsecond
	cfg.CacheCap = 64 // small enough that eviction happens under load
	s, store, _, traces := testMultiServer(t, 64, 8, cfg)
	chunks := testChunks(64)

	dir := t.TempDir()
	paths := [2]string{filepath.Join(dir, "a.vsf"), filepath.Join(dir, "b.vsf")}
	for _, p := range paths {
		if err := store.SaveIndex(p); err != nil {
			t.Fatal(err)
		}
	}

	// Warm one entry per trace route.
	warm := map[string]*mcq.Trace{}
	for _, tr := range traces {
		if _, ok := warm[string(tr.Mode)]; !ok {
			warm[string(tr.Mode)] = tr
			for i := 0; i < 2; i++ {
				if _, _, _, err := s.SearchRoute(context.Background(), TraceRoute(tr.Mode), tr.Reasoning, 3, ""); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	const workers = 8
	const swaps = 12
	stop := make(chan struct{})
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := chunks[(w*13+i)%len(chunks)]
				res, _, epoch, err := s.SearchRoute(context.Background(), RouteChunks, q.Text, 3, "")
				if err != nil || len(res) == 0 || res[0].ID != q.ID {
					bad.Add(1)
					continue
				}
				if published := s.routes[RouteChunks].snap.Load().Epoch; epoch > published {
					// A response can trail a concurrent swap but never lead it.
					bad.Add(1)
				}
				if n := s.routes[RouteChunks].cache.Len(); n > cfg.CacheCap {
					t.Errorf("cache len %d exceeds capacity %d", n, cfg.CacheCap)
					return
				}
			}
		}(w)
	}

	for i := 0; i < swaps; i++ {
		time.Sleep(2 * time.Millisecond)
		if _, err := s.SwapFromFile(paths[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(2 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := bad.Load(); n != 0 {
		t.Fatalf("%d inconsistent responses across %d swaps", n, swaps)
	}
	// No entry may survive under a dead epoch: every remaining key was
	// filled for the final generation.
	finalPrefix := fmt.Sprintf("%d\x1f", s.routes[RouteChunks].snap.Load().Epoch)
	for _, sh := range s.routes[RouteChunks].cache.shards {
		sh.mu.Lock()
		for key := range sh.items {
			if !strings.HasPrefix(key, finalPrefix) {
				sh.mu.Unlock()
				t.Fatalf("dead-epoch cache key %q (final epoch %d)", key, s.routes[RouteChunks].snap.Load().Epoch)
			}
		}
		sh.mu.Unlock()
	}
	// Trace routes rode through every chunk swap with warm caches and
	// untouched epochs.
	for mode, tr := range warm {
		res, cached, epoch, err := s.SearchRoute(context.Background(), "traces/"+mode, tr.Reasoning, 3, "")
		if err != nil || len(res) == 0 {
			t.Fatalf("trace route %s: res=%v err=%v", mode, res, err)
		}
		if !cached || epoch != 0 {
			t.Fatalf("trace route %s went cold across chunk swaps: cached=%v epoch=%d", mode, cached, epoch)
		}
	}
	if snap, _ := s.RouteSnapshot("traces/detailed"); snap.Epoch != 0 {
		t.Fatalf("chunk swaps advanced a trace epoch to %d", snap.Epoch)
	}
}
