package router

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chunk"
	"repro/internal/rag"
	"repro/internal/serve"
)

// scriptedShard serves part behind a front that answers the first
// len(statuses) batch searches with those statuses, then passes every
// call through. It reports how many batch searches reached it.
func scriptedShard(t *testing.T, part []chunk.Chunk, statuses ...int) (string, *atomic.Int64) {
	t.Helper()
	s := serve.New(rag.BuildChunkStore(nil, part, 0), serve.DefaultConfig())
	t.Cleanup(func() { s.Close() })
	next := s.Handler()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/search/batch") {
			if n := calls.Add(1); n <= int64(len(statuses)) {
				http.Error(w, "scripted failure", statuses[n-1])
				return
			}
		}
		next.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL, &calls
}

// TestShardFaultPolicy pins the router's fixed retry policy on a shard
// answering scripted statuses: one 503 is retried exactly once and the
// reply stays whole; a second 503 exhausts the one retry and the call
// degrades; a 400 is the router's own fault and is never retried.
func TestShardFaultPolicy(t *testing.T) {
	corpus := testCorpus(32)
	parts := partition(corpus, 2)
	query := corpus[2].Text
	for _, tc := range []struct {
		name     string
		statuses []int
		calls    int64 // batch searches reaching shard0
		retries  int64
		degraded bool
	}{
		{"503 once", []int{503}, 2, 1, false},
		{"503 twice", []int{503, 503}, 2, 1, true},
		{"400", []int{400}, 1, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			url0, calls := scriptedShard(t, parts[0], tc.statuses...)
			url1, _ := scriptedShard(t, parts[1])
			r, err := New(Config{Shards: []string{url0, url1}})
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			c := NewClient("http://"+r.Addr(), nil)

			resp, err := c.SearchRouteReqCtx(t.Context(), serve.RouteChunks, serve.SearchRequest{Query: query, K: 5})
			if err != nil {
				t.Fatalf("a failing shard must degrade the reply, not fail it: %v", err)
			}
			survivors := corpus
			wantOK := 2
			if tc.degraded {
				survivors, wantOK = parts[1], 1
			}
			if resp.Degraded != tc.degraded || resp.ShardsOK != wantOK || resp.ShardsTotal != 2 {
				t.Fatalf("reply degraded=%v shards %d/%d, want degraded=%v shards %d/2",
					resp.Degraded, resp.ShardsOK, resp.ShardsTotal, tc.degraded, wantOK)
			}
			if want := storeSearch(survivors, []string{query}, 5)[0]; !reflect.DeepEqual(resp.Results, want) {
				t.Fatalf("results not exact over the answering shards:\ngot:  %+v\nwant: %+v", resp.Results, want)
			}
			if got := calls.Load(); got != tc.calls {
				t.Fatalf("shard0 saw %d batch searches, want %d", got, tc.calls)
			}
			p := ShardMetricPrefix("shard0")
			if got := r.Registry().Counter(p + "retries").Value(); got != tc.retries {
				t.Fatalf("%sretries = %d, want %d", p, got, tc.retries)
			}
			wantFailures := int64(0)
			if tc.degraded {
				wantFailures = 1
			}
			if got := r.Registry().Counter(p + "failures").Value(); got != wantFailures {
				t.Fatalf("%sfailures = %d, want %d", p, got, wantFailures)
			}
		})
	}
}

// TestShardClientsHaveNoClientTimeout pins that ShardTimeout alone bounds
// a shard call: the shard clients' HTTP client carries no client-level
// timeout, which would silently cut a longer ShardTimeout (a 30 s cap
// once did).
func TestShardClientsHaveNoClientTimeout(t *testing.T) {
	r, err := New(Config{Shards: []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}, ShardTimeout: 2 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.hc.Timeout != 0 {
		t.Fatalf("shard HTTP client timeout %v, want none", r.hc.Timeout)
	}
	for _, sh := range r.shards {
		if *sh.client != *serve.NewClient(sh.url, r.hc) {
			t.Fatalf("%s: client not built on the router's timeout-free HTTP client", sh.name)
		}
	}
}
