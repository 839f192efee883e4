// Package argo implements the batched model-API gateway standing in for the
// Argo-Proxy service the paper routes GPT-4.1 calls through ("chunks are fed
// to GPT-4.1 in batches through the Argo-Proxy API").
//
// The gateway's one job is request coalescing: concurrent Call()s are
// packed into batches of up to MaxBatch by the shared internal/batch
// coalescer (which the serve retrieval server and the router reuse). The
// gateway inherits its admission rule — a call waits for batchmates at
// most one handler service time, capped by MaxDelay — so a slow model
// endpoint still gets full batches while a fast handler (the in-process
// simulated teacher, ~30 µs per batch) is not made to sit out MaxDelay per
// call; Stats().Window shows which regime the gateway is in.
//
// The gateway is in-process: the handler is a Go function (the simulated
// teacher in the pipeline), called directly with each coalesced batch. It
// cannot fail transiently, so the gateway does not retry: a response's Err
// is final. Retry with backoff lives where a call can fail, in the
// router's shard fan-out.
package argo

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/batch"
)

// Request is one unit of model work. Payload is opaque to the gateway.
type Request struct {
	ID      string `json:"id"`
	Op      string `json:"op"` // e.g. "generate-mcq", "trace", "judge"
	Payload []byte `json:"payload"`
}

// Response carries the handler's output for one request. A non-empty Err
// fails that request's Call.
type Response struct {
	ID      string `json:"id"`
	Payload []byte `json:"payload,omitempty"`
	Err     string `json:"err,omitempty"`
}

// BatchHandler services one batch. It must return exactly one response per
// request, index-aligned: out[i] answers batch[i]. A handler that returns
// more or fewer responses fails every request of the batch.
type BatchHandler func(ctx context.Context, batch []Request) []Response

// Config parameterises a Gateway; see batch.Config.
type Config struct {
	MaxBatch int           // max requests per handler call (default 16)
	MaxDelay time.Duration // cap on the time a request waits for batchmates (default 2ms)
}

// Stats is a snapshot of gateway accounting. Requests, Batches (handler
// invocations), MaxBatched, Window and QueueWait are the coalescer's: the
// admission window the next batch will get (MaxDelay while the handler is
// at least that slow, its smoothed service time otherwise) and the
// cumulative time calls spent queued before their batch was dispatched.
// Failures counts requests answered with an error.
type Stats struct {
	Requests int64
	Batches  int64
	// Retries is always 0: the gateway does not retry. It stays only
	// because ragbench's mcqa workload reports it as argo.retries.
	Retries    int64
	Failures   int64
	MaxBatched int
	Window     time.Duration
	QueueWait  time.Duration
}

// ErrGatewayClosed is returned by Call after Close.
var ErrGatewayClosed = errors.New("argo: gateway closed")

// Gateway batches concurrent requests into handler calls. Coalescing is
// delegated to internal/batch; the gateway adds the ID-carrying request
// and response types and the failure count.
type Gateway struct {
	handler  BatchHandler
	co       *batch.Coalescer[Request, Response]
	failures atomic.Int64
}

// NewGateway starts a gateway around handler.
func NewGateway(cfg Config, handler BatchHandler) *Gateway {
	g := &Gateway{handler: handler}
	g.co = batch.New(batch.Config{MaxBatch: cfg.MaxBatch, MaxDelay: cfg.MaxDelay}, g.serve)
	return g
}

// Close drains and stops the gateway: batches already formed are served,
// and calls after Close fail.
func (g *Gateway) Close() { g.co.Close() }

// Stats returns a snapshot of the gateway counters.
func (g *Gateway) Stats() Stats {
	co := g.co.Stats()
	return Stats{
		Requests:   co.Items,
		Batches:    co.Batches,
		Failures:   g.failures.Load(),
		MaxBatched: co.MaxBatch,
		Window:     co.Window,
		QueueWait:  co.QueueWait,
	}
}

// Call submits one request and blocks for its response. A response
// carrying Err surfaces as an error.
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

// serve invokes the handler once on a coalesced batch. A response count
// that does not match the batch breaks the index alignment, so no response
// can be trusted to answer its request: every request fails.
func (g *Gateway) serve(reqs []Request) []Response {
	out := g.handler(context.Background(), reqs)
	if len(out) != len(reqs) {
		msg := fmt.Sprintf("argo: handler returned %d responses for a batch of %d", len(out), len(reqs))
		out = make([]Response, len(reqs))
		for i, req := range reqs {
			out[i] = Response{ID: req.ID, Err: msg}
		}
	}
	for _, resp := range out {
		if resp.Err != "" {
			g.failures.Add(1)
		}
	}
	return out
}
