package serve

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/rag"
)

// TestHealthzDegradedOnEmptyRoute: a mounted route with zero vectors must
// flip /healthz to "degraded" so an upstream prober can tell an empty
// shard from a healthy one.
func TestHealthzDegradedOnEmptyRoute(t *testing.T) {
	store := rag.BuildChunkStore(nil, nil, 0) // zero chunks: alive but empty
	s := New(store, DefaultConfig())
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	hz, err := NewClient("http://"+s.Addr(), nil).HealthzCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" {
		t.Fatalf("status %q for an empty route, want degraded", hz.Status)
	}
	if hz.Routes[RouteChunks].Vectors != 0 {
		t.Fatalf("routes %+v", hz.Routes)
	}
}

func TestFaultGateModes(t *testing.T) {
	chunks := testChunks(16)
	store := rag.BuildChunkStore(nil, chunks, 0)
	s := New(store, DefaultConfig())
	gate, err := s.StartFaulty("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c := NewClient("http://"+s.Addr(), nil)

	// Pass-through serves normally.
	if _, err := c.SearchRoute(RouteChunks, chunks[0].Text, 3, ""); err != nil {
		t.Fatalf("pass-through: %v", err)
	}

	// FaultError: every request becomes a typed 503.
	gate.Set(FaultError)
	_, err = c.SearchRoute(RouteChunks, chunks[0].Text, 3, "")
	var se *StatusError
	if !errors.As(err, &se) || se.Status != 503 {
		t.Fatalf("error mode: err=%v, want StatusError 503", err)
	}

	// FaultStall: a short caller deadline trips before the stall ends.
	gate.SetStall(600 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := c.SearchRouteReqCtx(ctx, RouteChunks, SearchRequest{Query: chunks[0].Text, K: 3}); err == nil {
		t.Fatal("stalled request under a 50ms deadline returned nil error")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("deadline did not propagate: request took %v", elapsed)
	}

	// FaultDown: the connection dies without a status.
	gate.Set(FaultDown)
	if _, err := c.SearchRoute(RouteChunks, chunks[0].Text, 3, ""); err == nil {
		t.Fatal("downed backend returned nil error")
	} else if errors.As(err, &se) {
		t.Fatalf("downed backend produced an HTTP status (%d), want a transport error", se.Status)
	}

	// Clear revives the backend — the shape a breaker's half-open probe
	// relies on.
	gate.Clear()
	if _, err := c.SearchRoute(RouteChunks, chunks[0].Text, 3, ""); err != nil {
		t.Fatalf("cleared gate: %v", err)
	}
}

// TestClientCtxPropagation: the ctx handed to the client must cancel the
// in-flight request, not just the local wait.
func TestClientCtxPropagation(t *testing.T) {
	s, _, chunks := testServer(t, 16, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.SearchRouteBatchCtx(ctx, RouteChunks, []string{chunks[0].Text}, 3, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	// An uncancelled ctx serves normally through the same path.
	resp, err := c.SearchRouteBatchCtx(context.Background(), RouteChunks, []string{chunks[0].Text}, 3, nil)
	if err != nil || len(resp.Results) != 1 || resp.Results[0][0].ID != chunks[0].ID {
		t.Fatalf("err=%v resp=%+v", err, resp)
	}
}
