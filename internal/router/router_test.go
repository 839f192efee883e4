package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/rag"
	"repro/internal/serve"
)

// fleet is a set of in-process fault-injectable shard backends over a
// modulo-partitioned corpus.
type fleet struct {
	gates  []*serve.FaultGate
	urls   []string
	parts  [][]chunk.Chunk
	corpus []chunk.Chunk
}

func testFleet(t testing.TB, nShards, nChunks int) *fleet {
	t.Helper()
	corpus := testCorpus(nChunks)
	f := &fleet{parts: partition(corpus, nShards), corpus: corpus}
	for _, part := range f.parts {
		s := serve.New(rag.BuildChunkStore(nil, part, 0), serve.DefaultConfig())
		gate, err := s.StartFaulty("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		f.gates = append(f.gates, gate)
		f.urls = append(f.urls, "http://"+s.Addr())
	}
	return f
}

// testRouter starts a router over the fleet under the package's fixed
// fault policy (one retry, a breaker tripping at three consecutive
// failures, a 500 ms cooldown and probe period, so a trip heals within
// about a second) and returns a client for it with the router's URL.
func testRouter(t testing.TB, f *fleet) (*Client, string) {
	t.Helper()
	r, err := New(Config{
		Shards:       f.urls,
		ShardTimeout: 2 * time.Second,
		MaxDelay:     500 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	url := "http://" + r.Addr()
	return NewClient(url, nil), url
}

func TestRouterEndToEnd(t *testing.T) {
	f := testFleet(t, 3, 48)
	c, url := testRouter(t, f)

	// Healthy fleet: full fan-out, not degraded, and the router's merged
	// answer equals a single unsharded store's, bit for bit.
	resp, err := c.SearchRouteReqCtx(t.Context(), serve.RouteChunks, serve.SearchRequest{Query: f.corpus[5].Text, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || resp.ShardsOK != 3 || resp.ShardsTotal != 3 {
		t.Fatalf("healthy response marked degraded: %+v", resp)
	}
	if resp.Results[0].ID != f.corpus[5].ID {
		t.Fatalf("self-query missed: %+v", resp.Results)
	}

	queries := []string{f.corpus[0].Text, f.corpus[31].Text, "supernova decay calibration"}
	want := storeSearch(f.corpus, queries, 10)
	bresp, err := c.SearchRouteBatchCtx(t.Context(), serve.RouteChunks, queries, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bresp.Degraded {
		t.Fatalf("healthy batch marked degraded: ok=%d", bresp.ShardsOK)
	}
	for qi := range queries {
		if !reflect.DeepEqual(bresp.Results[qi], want[qi]) {
			t.Fatalf("query %d:\nrouter: %+v\nexact:  %+v", qi, bresp.Results[qi], want[qi])
		}
	}

	hz, err := c.HealthzCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.ShardsOK != 3 || len(hz.Shards) != 3 {
		t.Fatalf("healthz %+v", hz)
	}

	// The route's coalescing window is on /metrics, within its cap
	// (testRouter's MaxDelay): the one search so far served a batch, so
	// the estimate has left its seed but cannot exceed it. The router's
	// /metrics speaks the backends' exposition, so the backend client
	// reads it.
	mtext, err := serve.NewClient(url, nil).MetricsCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	var windowUS int64 = -1
	for _, line := range strings.Split(mtext, "\n") {
		if rest, ok := strings.CutPrefix(line, "gauge router.chunks.coalesce_window_us "); ok {
			windowUS, _ = strconv.ParseInt(rest, 10, 64)
		}
	}
	if windowUS <= 0 || windowUS > 500 {
		t.Fatalf("router.chunks.coalesce_window_us = %d, want within (0, 500] in:\n%s", windowUS, mtext)
	}

	// Kill shard1 cold. Every response from here to recovery must be a
	// 200 — degraded with the exact top-k over the survivors, never a 5xx.
	f.gates[1].Set(serve.FaultDown)
	survivors := append(append([]chunk.Chunk(nil), f.parts[0]...), f.parts[2]...)
	wantDeg := storeSearch(survivors, []string{f.corpus[1].Text}, 5)[0]
	deadline := time.Now().Add(5 * time.Second)
	tripped := false
	for time.Now().Before(deadline) {
		resp, err := c.SearchRouteReqCtx(t.Context(), serve.RouteChunks, serve.SearchRequest{Query: f.corpus[1].Text, K: 5})
		if err != nil {
			t.Fatalf("outage must degrade, not error: %v", err)
		}
		if !resp.Degraded || resp.ShardsOK != 2 || resp.ShardsTotal != 3 {
			t.Fatalf("response during outage: %+v", resp)
		}
		if !reflect.DeepEqual(resp.Results, wantDeg) {
			t.Fatalf("degraded results not exact over survivors:\ngot:  %+v\nwant: %+v", resp.Results, wantDeg)
		}
		hz, err = c.HealthzCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sh := hz.Shards["shard1"]; sh.Trips >= 1 {
			tripped = true
			if hz.Status != "degraded" {
				t.Fatalf("healthz status %q with tripped shard", hz.Status)
			}
			if sh.Breaker == "closed" {
				t.Fatalf("shard1 breaker %q after trip", sh.Breaker)
			}
			break
		}
	}
	if !tripped {
		t.Fatal("shard1 breaker never tripped")
	}

	// Revive the shard: the health prober's half-open probe must close the
	// breaker and restore full-recall responses without client traffic
	// paying for the recovery.
	f.gates[1].Clear()
	recovered := false
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		hz, err = c.HealthzCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if hz.Status == "ok" && hz.ShardsOK == 3 {
			recovered = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("breaker never closed after revival: %+v", hz)
	}
	resp, err = c.SearchRouteReqCtx(t.Context(), serve.RouteChunks, serve.SearchRequest{Query: f.corpus[1].Text, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || resp.ShardsOK != 3 {
		t.Fatalf("post-recovery response: %+v", resp)
	}
	if resp.Results[0].ID != f.corpus[1].ID {
		t.Fatalf("revived shard's chunk missing: %+v", resp.Results)
	}
}

// TestRouterDegradedBatch: the explicit batch endpoint degrades like the
// single one. With one shard of three down it answers 200, degraded, with
// each query's exact merge over the two survivors, and counts every query
// of the batch as degraded.
func TestRouterDegradedBatch(t *testing.T) {
	f := testFleet(t, 3, 48)
	c, _ := testRouter(t, f)
	degraded := func() int64 {
		mtext, err := c.MetricsCtx(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(mtext, "\n") {
			if rest, ok := strings.CutPrefix(line, "counter router.chunks.degraded "); ok {
				n, err := strconv.ParseInt(rest, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatalf("no router.chunks.degraded counter in:\n%s", mtext)
		return 0
	}
	before := degraded()

	f.gates[1].Set(serve.FaultDown)
	queries := []string{f.corpus[1].Text, f.corpus[30].Text, "supernova decay calibration", f.corpus[44].Text}
	survivors := append(append([]chunk.Chunk(nil), f.parts[0]...), f.parts[2]...)
	want := storeSearch(survivors, queries, 5)
	resp, err := c.SearchRouteBatchCtx(t.Context(), serve.RouteChunks, queries, 5, nil)
	if err != nil {
		t.Fatalf("outage must degrade, not error: %v", err)
	}
	if !resp.Degraded || resp.ShardsOK != 2 || resp.ShardsTotal != 3 {
		t.Fatalf("batch during outage: degraded=%v shards %d/%d", resp.Degraded, resp.ShardsOK, resp.ShardsTotal)
	}
	for qi := range queries {
		if !reflect.DeepEqual(resp.Results[qi], want[qi]) {
			t.Fatalf("query %d not exact over survivors:\ngot:  %+v\nwant: %+v", qi, resp.Results[qi], want[qi])
		}
	}
	if got := degraded() - before; got != int64(len(queries)) {
		t.Fatalf("router.chunks.degraded grew by %d, want %d", got, len(queries))
	}
}

func TestRouterAllShardsFailed(t *testing.T) {
	f := testFleet(t, 2, 16)
	c, _ := testRouter(t, f)
	for _, g := range f.gates {
		g.Set(serve.FaultError)
	}
	// Not one shard answered: the only case the router 5xxes.
	_, err := c.SearchRouteReqCtx(t.Context(), serve.RouteChunks, serve.SearchRequest{Query: f.corpus[0].Text, K: 3})
	var se *serve.StatusError
	if !errors.As(err, &se) || se.Status != 503 {
		t.Fatalf("err=%v, want router 503", err)
	}
	if _, err := c.SearchRouteBatchCtx(t.Context(), serve.RouteChunks, []string{f.corpus[0].Text}, 3, nil); !errors.As(err, &se) || se.Status != 503 {
		t.Fatalf("batch err=%v, want router 503", err)
	}
	// A third failed request trips both breakers (breakerThreshold
	// consecutive failures), so the fleet heals via half-open probes after
	// Clear, not instantly.
	for range breakerThreshold - 2 {
		if _, err := c.SearchRouteReqCtx(t.Context(), serve.RouteChunks, serve.SearchRequest{Query: f.corpus[0].Text, K: 3}); !errors.As(err, &se) || se.Status != 503 {
			t.Fatalf("err=%v, want router 503", err)
		}
	}
	hz, err := c.HealthzCtx(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if hz.ShardsOK != 0 || hz.Shards["shard0"].Trips != 1 || hz.Shards["shard1"].Trips != 1 {
		t.Fatalf("breakers after %d failed requests: %+v", breakerThreshold, hz)
	}
	for _, g := range f.gates {
		g.Clear()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := c.SearchRouteReqCtx(t.Context(), serve.RouteChunks, serve.SearchRequest{Query: f.corpus[0].Text, K: 3})
		if err == nil && !resp.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never recovered: err=%v resp=%+v", err, resp)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRouterRequestValidation(t *testing.T) {
	f := testFleet(t, 2, 16)
	c, _ := testRouter(t, f)
	var se *serve.StatusError
	if _, err := c.SearchRouteReqCtx(t.Context(), serve.RouteChunks, serve.SearchRequest{Query: "", K: 3}); !errors.As(err, &se) || se.Status != 400 {
		t.Fatalf("empty query: err=%v, want 400", err)
	}
	big := make([]string, 2000)
	for i := range big {
		big[i] = "q"
	}
	if _, err := c.SearchRouteBatchCtx(t.Context(), serve.RouteChunks, big, 3, nil); !errors.As(err, &se) || se.Status != 413 {
		t.Fatalf("oversized batch: err=%v, want 413", err)
	}
	if _, err := c.SearchRouteBatchCtx(t.Context(), serve.RouteChunks, []string{"a", "b"}, 3, []string{"only-one"}); !errors.As(err, &se) || se.Status != 400 {
		t.Fatalf("mismatched exclude: err=%v, want 400", err)
	}
}

// TestUnroutedPathsAre404: the router serves /v1/<route>/... only; the
// bare /v1/search paths do not exist on this tier either.
func TestUnroutedPathsAre404(t *testing.T) {
	f := testFleet(t, 2, 16)
	_, url := testRouter(t, f)
	for _, path := range []string{"/v1/search", "/v1/search/batch"} {
		resp, err := http.Post(url+path, "application/json",
			strings.NewReader(fmt.Sprintf(`{"query":%q,"queries":[%q]}`, f.corpus[0].Text, f.corpus[0].Text)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}
