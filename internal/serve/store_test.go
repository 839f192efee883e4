package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rag"
)

// fakeStore is a search-only Store (no rag.Swapper half): it answers each
// query with one hit named after the query, reports parts as given, or
// fails every batch with err.
type fakeStore struct {
	parts rag.Parts
	err   error
	calls atomic.Int64
}

func (f *fakeStore) RetrieveBatch(_ context.Context, queries []string, _ int, _ []string) (rag.Batch, error) {
	f.calls.Add(1)
	if f.err != nil {
		return rag.Batch{}, f.err
	}
	hits := make([][]rag.Hit, len(queries))
	for i, q := range queries {
		hits[i] = []rag.Hit{{ID: q, Score: 1}}
	}
	return rag.Batch{Hits: hits, Stages: []rag.Stage{{Name: "scan", Dur: time.Microsecond}}, Parts: f.parts}, nil
}

func (f *fakeStore) Len() int { return 1 }

// fakeServer starts a cache-enabled server with each store mounted under
// its route name.
func fakeServer(t *testing.T, stores map[string]Store) *Server {
	t.Helper()
	s := NewMulti(DefaultConfig())
	for name, st := range stores {
		if err := s.Mount(name, st); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestPartialResultIsNeverCached: a reply that some parts of the store
// did not answer is marked degraded on both endpoints, counted once per
// query, and recomputed on the repeat query — while a complete answer
// from the same kind of store is cached as usual.
func TestPartialResultIsNeverCached(t *testing.T) {
	partial := &fakeStore{parts: rag.Parts{OK: 1, Total: 2}}
	whole := &fakeStore{parts: rag.Parts{OK: 2, Total: 2}}
	s := fakeServer(t, map[string]Store{"partial": partial, "whole": whole})
	c := NewClient("http://"+s.Addr(), nil)

	for i := 0; i < 2; i++ {
		resp, err := c.SearchRoute("partial", "q", 1, "")
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached || !resp.Degraded || resp.ShardsOK != 1 || resp.ShardsTotal != 2 {
			t.Fatalf("partial reply %d: %+v", i, resp)
		}
	}
	if n := partial.calls.Load(); n != 2 {
		t.Fatalf("partial store searched %d times for 2 queries, want 2 (no cache hit)", n)
	}
	bresp, err := c.SearchRouteBatchCtx(t.Context(), "partial", []string{"a", "b", "c"}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bresp.Degraded || bresp.ShardsOK != 1 || bresp.ShardsTotal != 2 {
		t.Fatalf("partial batch reply: %+v", bresp)
	}
	if n := s.Registry().Snapshot().Counter(MetricPrefix("partial") + "degraded"); n != 5 {
		t.Fatalf("serve.partial.degraded = %d, want 5 (2 singles + 3 batch queries)", n)
	}

	first, err := c.SearchRoute("whole", "q", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.SearchRoute("whole", "q", 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if first.Degraded || first.Cached || !second.Cached || second.ShardsOK != 2 || second.ShardsTotal != 2 {
		t.Fatalf("complete replies: first %+v, second %+v", first, second)
	}
	if n := s.Registry().Snapshot().Counter(MetricPrefix("whole") + "degraded"); n != 0 {
		t.Fatalf("serve.whole.degraded = %d, want 0", n)
	}
}

// TestStoreErrorIs503: a store that fails answers 503 on the single and
// the batch endpoint, and each failure counts as a route error.
func TestStoreErrorIs503(t *testing.T) {
	s := fakeServer(t, map[string]Store{RouteChunks: &fakeStore{err: errors.New("every part failed")}})
	c := NewClient("http://"+s.Addr(), nil)
	var se *StatusError
	if _, err := c.SearchRoute(RouteChunks, "q", 1, ""); !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("single: err=%v, want 503", err)
	}
	if _, err := c.SearchRouteBatchCtx(t.Context(), RouteChunks, []string{"q"}, 1, nil); !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable {
		t.Fatalf("batch: err=%v, want 503", err)
	}
	if n := s.Registry().Snapshot().Counter(MetricPrefix(RouteChunks) + "errors"); n != 2 {
		t.Fatalf("serve.chunks.errors = %d, want 2", n)
	}
}

// TestSearchOnlyRouteHasNoWriteEndpoints: a route whose store lacks the
// swap half answers swap, add and compact with 404. The swap body names a
// file that does not exist: opening it would have answered 400.
func TestSearchOnlyRouteHasNoWriteEndpoints(t *testing.T) {
	s := fakeServer(t, map[string]Store{RouteChunks: &fakeStore{}})
	missing := filepath.Join(t.TempDir(), "missing.vsf")
	for path, body := range map[string]string{
		"/admin/chunks/swap":    `{"path":"` + missing + `"}`,
		"/v1/chunks/add":        `{"chunks":[{"chunk_id":"n1","text":"fresh"}]}`,
		"/admin/chunks/compact": `{}`,
	} {
		resp, err := http.Post("http://"+s.Addr()+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("POST %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// fixedStore answers every query with the same hits; a nil fixedStore
// answers each query with a nil list.
type fixedStore []rag.Hit

func (f fixedStore) RetrieveBatch(_ context.Context, queries []string, _ int, _ []string) (rag.Batch, error) {
	hits := make([][]rag.Hit, len(queries))
	for i := range hits {
		hits[i] = f
	}
	return rag.Batch{Hits: hits}, nil
}

func (f fixedStore) Len() int { return len(f) }

// TestWireResultBytes pins the result bytes. The stores' hits go on the
// wire as they are, so a query with no hits must still answer [] (not
// null) on both search endpoints, and a hit encodes id, group, text and
// score in that order.
func TestWireResultBytes(t *testing.T) {
	s := fakeServer(t, map[string]Store{
		"empty": fixedStore(nil),
		"one":   fixedStore{{ID: "c1", Group: "d1", Text: "some text", Score: 0.5}},
	})
	const hit = `{"id":"c1","group":"d1","text":"some text","score":0.5}`
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/empty/search", `{"query":"q"}`, `"results":[]`},
		{"/v1/empty/search/batch", `{"queries":["q"]}`, `"results":[[]]`},
		{"/v1/one/search", `{"query":"q"}`, `"results":[` + hit + `]`},
		{"/v1/one/search/batch", `{"queries":["q"]}`, `"results":[[` + hit + `]]`},
	} {
		resp, err := http.Post("http://"+s.Addr()+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: status %d, body %s; want it to contain %s", tc.path, resp.StatusCode, body, tc.want)
		}
	}
}
