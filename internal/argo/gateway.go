// Package argo implements the batched model-API gateway standing in for the
// Argo-Proxy service the paper routes GPT-4.1 calls through ("chunks are fed
// to GPT-4.1 in batches through the Argo-Proxy API").
//
// The gateway provides the orchestration semantics an HPC generation
// campaign needs from a model endpoint:
//
//   - request coalescing: concurrent Call()s are packed into batches of up
//     to MaxBatch by the shared internal/batch coalescer (which the serve
//     retrieval server and the router reuse). The gateway inherits its
//     admission rule — a call waits for batchmates at most one handler
//     service time, capped by MaxDelay — so a slow model endpoint still
//     gets full batches while a fast handler (the in-process simulated
//     teacher, ~30 µs per batch) is not made to sit out MaxDelay per call;
//     Stats().Window shows which regime the gateway is in;
//   - bounded retries with exponential backoff and deterministic jitter for
//     transient failures (the schedule is the shared internal/retry.Policy,
//     which the router's shard fan-out reuses), aborted immediately when
//     the gateway closes.
//
// The gateway is in-process: the handler is a Go function (the simulated
// teacher in the pipeline), called directly with each coalesced batch.
package argo

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/retry"
)

// Request is one unit of model work. Payload is opaque to the gateway.
type Request struct {
	ID      string `json:"id"`
	Op      string `json:"op"` // e.g. "generate-mcq", "trace", "judge"
	Payload []byte `json:"payload"`
}

// Response carries the handler's output for one request. Transient
// failures set Retry, telling the gateway the request may be retried.
type Response struct {
	ID      string `json:"id"`
	Payload []byte `json:"payload,omitempty"`
	Err     string `json:"err,omitempty"`
	Retry   bool   `json:"retry,omitempty"`
}

// BatchHandler services one batch. It must return exactly one response per
// request, in any order, keyed by ID.
type BatchHandler func(ctx context.Context, batch []Request) []Response

// Config parameterises a Gateway.
type Config struct {
	MaxBatch    int           // max requests per handler call (default 16)
	MaxDelay    time.Duration // cap on the time a request waits for batchmates (default 2ms); see batch.Config
	MaxRetries  int           // retry budget per request for transient failures (default 3)
	BaseBackoff time.Duration // first retry delay (default 1ms, doubles per attempt)
}

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = time.Millisecond
	}
}

// Stats is a snapshot of gateway accounting. Batches counts handler
// invocations including retry rounds, so it can exceed the coalescer's
// dispatch count. Window and QueueWait are the coalescer's: the admission
// window the next batch will get (MaxDelay while the handler is at least
// that slow, its smoothed service time otherwise) and the cumulative time
// calls spent queued before their batch was dispatched.
type Stats struct {
	Requests   int64
	Batches    int64
	Retries    int64
	Failures   int64
	MaxBatched int
	Window     time.Duration
	QueueWait  time.Duration
}

// ErrGatewayClosed is returned by Call after Close.
var ErrGatewayClosed = errors.New("argo: gateway closed")

// Gateway batches concurrent requests into handler calls. Coalescing is
// delegated to internal/batch; the gateway layers the model-endpoint
// semantics (retry with backoff, ID-keyed handler contract) on top.
type Gateway struct {
	cfg     Config
	policy  retry.Policy
	handler BatchHandler
	co      *batch.Coalescer[Request, Response]

	// ctx gates the backoff sleeps of the retry machinery: Close cancels
	// it first, so a closing gateway stops retrying within one tick
	// instead of sleeping out the whole backoff schedule before the
	// coalescer can drain.
	ctx    context.Context
	cancel context.CancelFunc

	mu    sync.Mutex
	stats Stats
}

// NewGateway starts a gateway around handler.
func NewGateway(cfg Config, handler BatchHandler) *Gateway {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	g := &Gateway{
		cfg: cfg,
		// cfg.fill already resolved the retry knobs (including the
		// negative-means-zero rule), so the policy is used as-is, without
		// retry.Policy.Fill re-mapping an explicit 0 back to the default.
		policy:  retry.Policy{MaxRetries: cfg.MaxRetries, BaseBackoff: cfg.BaseBackoff},
		handler: handler,
		ctx:     ctx,
		cancel:  cancel,
	}
	g.co = batch.New(batch.Config{MaxBatch: cfg.MaxBatch, MaxDelay: cfg.MaxDelay}, func(reqs []Request) []Response {
		return g.serveAttempt(reqs, 0)
	})
	return g
}

// Close drains and stops the gateway. Calls after Close fail. Pending
// retry chains abort at their next backoff tick: the current handler
// attempt finishes (the drain guarantee), but no further attempts run and
// their requests fail with a retry-aborted error.
func (g *Gateway) Close() {
	g.cancel()
	g.co.Close()
}

// Stats returns a snapshot of the gateway counters.
func (g *Gateway) Stats() Stats {
	g.mu.Lock()
	st := g.stats
	g.mu.Unlock()
	co := g.co.Stats()
	st.Window, st.QueueWait = co.Window, co.QueueWait
	return st
}

// Call submits one request and blocks for its response. Transient failures
// are retried internally up to the configured budget; exhaustion surfaces
// as an error.
func (g *Gateway) Call(ctx context.Context, req Request) (Response, error) {
	resp, err := g.co.Do(ctx, req)
	if err != nil {
		if errors.Is(err, batch.ErrClosed) {
			return Response{}, ErrGatewayClosed
		}
		return Response{}, err
	}
	if resp.Err != "" {
		return resp, fmt.Errorf("argo: %s: %s", req.ID, resp.Err)
	}
	return resp, nil
}

// failAll answers every request with the same terminal error — the shape a
// batch takes when the gateway is cancelled mid-backoff.
func (g *Gateway) failAll(reqs []Request, err error) []Response {
	out := make([]Response, len(reqs))
	for i, req := range reqs {
		g.countFailure()
		out[i] = Response{ID: req.ID, Err: "argo: aborted: " + err.Error()}
	}
	return out
}

// serveAttempt invokes the handler once, resolves terminal responses, and
// re-serves transient failures with backoff until the retry budget is
// spent. Results are index-aligned with reqs, as the coalescer requires —
// which means batchmates of a retried request wait for the retry chain
// (bounded by sum-of-backoffs, ~a few ms at the default BaseBackoff)
// instead of receiving their already-computed responses early, the one
// semantic trade-off of delegating delivery to the shared coalescer.
func (g *Gateway) serveAttempt(reqs []Request, attempt int) []Response {
	g.mu.Lock()
	g.stats.Batches++
	if attempt == 0 {
		g.stats.Requests += int64(len(reqs))
	}
	if len(reqs) > g.stats.MaxBatched {
		g.stats.MaxBatched = len(reqs)
	}
	g.mu.Unlock()

	responses := g.handler(g.ctx, reqs)
	byID := make(map[string]Response, len(responses))
	for _, resp := range responses {
		byID[resp.ID] = resp
	}

	out := make([]Response, len(reqs))
	var retryReqs []Request
	var retryIdx []int
	for i, req := range reqs {
		resp, ok := byID[req.ID]
		if !ok {
			// Handler contract violations (missing IDs) become failures.
			g.countFailure()
			out[i] = Response{ID: req.ID, Err: "argo: handler returned no response"}
			continue
		}
		if resp.Retry && attempt < g.cfg.MaxRetries {
			retryReqs = append(retryReqs, req)
			retryIdx = append(retryIdx, i)
			continue
		}
		if resp.Err != "" {
			g.countFailure()
		}
		out[i] = resp
	}
	if len(retryReqs) > 0 {
		g.mu.Lock()
		g.stats.Retries += int64(len(retryReqs))
		g.mu.Unlock()
		// Exponential backoff with deterministic jitter from the attempt
		// number (no wall-clock randomness, keeping runs reproducible) —
		// the schedule now lives in the shared retry.Policy. The sleep
		// aborts the moment the gateway's context is cancelled, so Close
		// never waits out the remaining schedule.
		if err := retry.Sleep(g.ctx, g.policy.Backoff(attempt)); err != nil {
			failed := g.failAll(retryReqs, err)
			for j, i := range retryIdx {
				out[i] = failed[j]
			}
			return out
		}
		retried := g.serveAttempt(retryReqs, attempt+1)
		for j, i := range retryIdx {
			out[i] = retried[j]
		}
	}
	return out
}

func (g *Gateway) countFailure() {
	g.mu.Lock()
	g.stats.Failures++
	g.mu.Unlock()
}
