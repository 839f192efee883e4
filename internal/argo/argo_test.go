package argo

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// callAll issues every request as its own concurrent Call, so the gateway
// is free to coalesce them, and returns the responses in request order.
func callAll(t *testing.T, g *Gateway, reqs []Request) []Response {
	t.Helper()
	out := make([]Response, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i], errs[i] = g.Call(context.Background(), reqs[i])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// echoHandler answers every request with its payload.
func echoHandler(_ context.Context, batch []Request) []Response {
	out := make([]Response, len(batch))
	for i, r := range batch {
		out[i] = Response{ID: r.ID, Payload: r.Payload}
	}
	return out
}

func TestCallRoundTrip(t *testing.T) {
	g := NewGateway(Config{}, echoHandler)
	defer g.Close()
	resp, err := g.Call(context.Background(), Request{ID: "r1", Op: "echo", Payload: []byte("hello")})
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Payload) != "hello" {
		t.Fatalf("payload %q", resp.Payload)
	}
}

func TestBatching(t *testing.T) {
	var maxBatch int32
	handler := func(ctx context.Context, batch []Request) []Response {
		for {
			m := atomic.LoadInt32(&maxBatch)
			if int32(len(batch)) <= m || atomic.CompareAndSwapInt32(&maxBatch, m, int32(len(batch))) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return echoHandler(ctx, batch)
	}
	g := NewGateway(Config{MaxBatch: 8, MaxDelay: 5 * time.Millisecond}, handler)
	defer g.Close()
	reqs := make([]Request, 64)
	for i := range reqs {
		reqs[i] = Request{ID: fmt.Sprintf("r%d", i)}
	}
	callAll(t, g, reqs)
	if atomic.LoadInt32(&maxBatch) < 2 {
		t.Fatalf("no coalescing observed (max batch %d)", maxBatch)
	}
	st := g.Stats()
	if st.Requests != 64 {
		t.Fatalf("stats requests %d", st.Requests)
	}
	// The coalescer's policy is visible through the gateway: a window
	// within the configured cap, and the time the 64 calls spent queued.
	if st.Window <= 0 || st.Window > 5*time.Millisecond || st.QueueWait <= 0 {
		t.Fatalf("stats window %v (cap 5ms), queue wait %v", st.Window, st.QueueWait)
	}
}

func TestCallAllOrder(t *testing.T) {
	g := NewGateway(Config{MaxBatch: 4}, echoHandler)
	defer g.Close()
	reqs := make([]Request, 20)
	for i := range reqs {
		reqs[i] = Request{ID: fmt.Sprintf("r%d", i), Payload: []byte(fmt.Sprint(i))}
	}
	for i, r := range callAll(t, g, reqs) {
		if string(r.Payload) != fmt.Sprint(i) {
			t.Fatalf("response %d carries %q", i, r.Payload)
		}
	}
}

func TestPermanentErrorNoRetry(t *testing.T) {
	var calls int32
	handler := func(_ context.Context, batch []Request) []Response {
		atomic.AddInt32(&calls, 1)
		out := make([]Response, len(batch))
		for i, r := range batch {
			out[i] = Response{ID: r.ID, Err: "malformed payload"}
		}
		return out
	}
	g := NewGateway(Config{}, handler)
	defer g.Close()
	if _, err := g.Call(context.Background(), Request{ID: "bad"}); err == nil {
		t.Fatal("permanent error not surfaced")
	}
	if atomic.LoadInt32(&calls) != 1 {
		t.Fatalf("permanent error retried %d times", calls)
	}
	if f := g.Stats().Failures; f != 1 {
		t.Fatalf("failures %d, want 1", f)
	}
}

func TestMissingResponseBecomesError(t *testing.T) {
	handler := func(_ context.Context, batch []Request) []Response { return nil }
	g := NewGateway(Config{}, handler)
	defer g.Close()
	_, err := g.Call(context.Background(), Request{ID: "lost"})
	if err == nil || !strings.Contains(err.Error(), "0 responses for a batch of 1") {
		t.Fatalf("err = %v", err)
	}
}

// TestResponseCountMismatchFailsBatch: the handler contract is
// index-aligned, so a handler answering one response too few or one too
// many leaves no response that can be trusted to answer its request, and
// every request of the batch fails.
func TestResponseCountMismatchFailsBatch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		extra int
	}{{"too few", -1}, {"too many", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			handler := func(ctx context.Context, batch []Request) []Response {
				out := echoHandler(ctx, batch)
				if tc.extra < 0 {
					return out[:len(out)-1]
				}
				return append(out, Response{ID: "stray"})
			}
			g := NewGateway(Config{MaxBatch: 8, MaxDelay: 5 * time.Millisecond}, handler)
			defer g.Close()
			const n = 8
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, errs[i] = g.Call(context.Background(), Request{ID: fmt.Sprintf("r%d", i), Payload: []byte("x")})
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err == nil || !strings.Contains(err.Error(), "responses for a batch of") {
					t.Fatalf("request %d: err = %v, want the count mismatch", i, err)
				}
			}
			if st := g.Stats(); st.Failures != n || st.Requests != n {
				t.Fatalf("stats %+v, want %d requests, all failed", st, n)
			}
		})
	}
}

func TestClosedGateway(t *testing.T) {
	g := NewGateway(Config{}, echoHandler)
	g.Close()
	if _, err := g.Call(context.Background(), Request{ID: "x"}); err != ErrGatewayClosed {
		t.Fatalf("err = %v", err)
	}
	g.Close() // idempotent
}

func TestContextCancelledCall(t *testing.T) {
	block := make(chan struct{})
	handler := func(ctx context.Context, batch []Request) []Response {
		<-block
		return echoHandler(ctx, batch)
	}
	g := NewGateway(Config{}, handler)
	defer func() {
		close(block)
		g.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := g.Call(ctx, Request{ID: "slow"})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v", err)
	}
}

func BenchmarkGatewayThroughput(b *testing.B) {
	g := NewGateway(Config{MaxBatch: 64, MaxDelay: 100 * time.Microsecond}, echoHandler)
	defer g.Close()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			_, _ = g.Call(context.Background(), Request{ID: fmt.Sprint(i)})
		}
	})
}

// BenchmarkGatewayCallFastHandler is the generation stage's shape: two
// closed-loop workers calling a handler that costs next to nothing, at the
// default MaxDelay. ns/op is the latency of one Call.
func BenchmarkGatewayCallFastHandler(b *testing.B) {
	g := NewGateway(Config{}, echoHandler)
	defer g.Close()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < b.N/2; i++ {
				if _, err := g.Call(context.Background(), Request{ID: fmt.Sprintf("w%d-%d", w, i)}); err != nil {
					b.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
