// Package batch provides the request-coalescing primitive shared by the
// repo's two gateways: the argo model-API proxy and the serve retrieval
// server (and the router in front of it). Concurrent Do() calls are packed
// into batches of up to MaxBatch items and handed to a single batch
// function — the admission-window design the source paper's service
// gateway uses to amortise per-call overhead across a campaign's worth of
// concurrent workers.
//
// The admission window is measured, not configured. The rule: the queueing
// delay a batch's first item is charged for batchmates is at most one
// service time, capped by MaxDelay —
//
//	window = min(MaxDelay, smoothed duration of the batch function's recent runs)
//
// because waiting longer than a batch takes to serve can never pay for
// itself. A slow batch function (a vector scan, a shard scatter: service
// time ≥ MaxDelay) keeps the full MaxDelay window and keeps filling its
// batches; a fast one (a ~30 µs simulated-teacher handler) stops charging
// every caller MaxDelay to amortise microseconds of work. The estimate
// starts at MaxDelay ("assume slow until measured"), so the first batch
// after New waits the full cap; that batch's duration replaces it, and
// later ones move it with an exponential moving average of gain 1/4.
// Below minTimerWindow a Go timer cannot honour the window, so none is
// armed: the dispatcher yields once and takes what is already queued.
// Stats reports the current window and the cumulative queue wait so an
// operator can see which regime a deployment is in.
//
// The coalescer guarantees that every accepted item is answered exactly
// once, even when Close races concurrent Do calls (see the closeMu
// commentary), which is what lets callers treat Do as an ordinary blocking
// RPC.
package batch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterises a Coalescer.
type Config struct {
	// MaxBatch is the largest batch handed to the batch function
	// (default 16).
	MaxBatch int
	// MaxDelay caps how long the first item of a batch waits for
	// batchmates (default 2ms). The wait actually applied is the batch
	// function's smoothed service time when that is shorter.
	MaxDelay time.Duration
}

const (
	// minTimerWindow is the shortest admission window worth arming a timer
	// for; below it the dispatcher yields once and drains the queue. A Go
	// timer fires tens of microseconds late at best — and up to a
	// millisecond late when the process is otherwise idle, because the
	// runtime then sleeps in the poller at 1 ms granularity — which at
	// these windows is the whole window several times over.
	//
	// The threshold must not sit between the service time of a one-item
	// batch and that of a two-item one. There the regime is bistable: the
	// late timer gathers two-item batches whose runs keep the window armed,
	// yielding keeps batches at one item and the window below, and a run
	// stays in whichever regime it reached first. A one-query Flat batch of
	// ~7.5k rows (embed and scan) takes ≈ 0.25 ms and a two-query one
	// ≈ 0.4 ms; 100 µs is below both and above the in-process teacher's
	// ≈ 30 µs batches.
	minTimerWindow = 100 * time.Microsecond
	// serviceGain is the inverse smoothing gain of the service-time
	// estimate: each batch moves it a quarter of the way to its own
	// duration.
	serviceGain = 4
)

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
}

// Stats is a snapshot of coalescer accounting.
type Stats struct {
	Items    int64 // items accepted and dispatched
	Batches  int64 // batch-function invocations
	MaxBatch int   // largest batch dispatched
	// Window is the admission window the next batch will get: MaxDelay
	// while the batch function is at least that slow, its smoothed service
	// time otherwise.
	Window time.Duration
	// QueueWait is the cumulative time items spent between entering Do and
	// their batch being dispatched.
	QueueWait time.Duration
}

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("batch: coalescer closed")

// errShortBatch surfaces a batch function that violated its contract.
var errShortBatch = errors.New("batch: batch function returned too few results")

// Func services one batch. It must return exactly one result per item,
// index-aligned with the input slice.
type Func[Q, R any] func(items []Q) []R

type item[Q, R any] struct {
	q    Q
	enq  time.Time // when the item entered Do
	done chan result[R]
}

type result[R any] struct {
	r   R
	err error
}

// Coalescer packs concurrent Do calls into batched Func invocations.
type Coalescer[Q, R any] struct {
	cfg   Config
	run   Func[Q, R]
	queue chan item[Q, R]
	done  chan struct{}
	wg    sync.WaitGroup

	// closeMu serialises enqueue against shutdown: Do holds the read side
	// across its enqueue, so Close cannot finish draining while an item is
	// in flight into the queue (a select races its two ready cases
	// randomly, so without this an item could be enqueued after the
	// dispatcher's final drain and never be answered).
	closeMu sync.RWMutex
	closed  bool

	// service is the smoothed duration of run's recent invocations in
	// nanoseconds; the dispatcher writes it, Stats reads it.
	service atomic.Int64

	mu    sync.Mutex
	stats Stats
}

// New starts a coalescer around run.
func New[Q, R any](cfg Config, run Func[Q, R]) *Coalescer[Q, R] {
	cfg.fill()
	c := &Coalescer[Q, R]{
		cfg:   cfg,
		run:   run,
		queue: make(chan item[Q, R], cfg.MaxBatch*4),
		done:  make(chan struct{}),
	}
	c.service.Store(int64(cfg.MaxDelay))
	c.wg.Add(1)
	go c.dispatchLoop()
	return c
}

// Do submits one item and blocks for its result. After Close it fails with
// ErrClosed; a cancelled context abandons the wait (the item may still be
// served as part of an already-formed batch).
func (c *Coalescer[Q, R]) Do(ctx context.Context, q Q) (R, error) {
	it := item[Q, R]{q: q, enq: time.Now(), done: make(chan result[R], 1)}
	// Hold the read side across the enqueue: either we observe the closed
	// flag and refuse, or the enqueue completes before Close can run its
	// final drain — so every accepted item is always answered.
	c.closeMu.RLock()
	if c.closed {
		c.closeMu.RUnlock()
		var zero R
		return zero, ErrClosed
	}
	select {
	case c.queue <- it:
		c.closeMu.RUnlock()
	case <-ctx.Done():
		c.closeMu.RUnlock()
		var zero R
		return zero, ctx.Err()
	}
	select {
	case res := <-it.done:
		return res.r, res.err
	case <-ctx.Done():
		var zero R
		return zero, ctx.Err()
	}
}

// Close drains and stops the coalescer. Do calls after Close fail.
func (c *Coalescer[Q, R]) Close() {
	c.closeMu.Lock()
	if c.closed {
		c.closeMu.Unlock()
		return
	}
	c.closed = true
	c.closeMu.Unlock()
	close(c.done)
	c.wg.Wait()
	// Catch any item whose enqueue won the race against the dispatcher's
	// own drain.
	c.failRemaining()
}

// Stats returns a snapshot of the coalescer counters.
func (c *Coalescer[Q, R]) Stats() Stats {
	c.mu.Lock()
	st := c.stats
	c.mu.Unlock()
	st.Window = c.window()
	return st
}

// dispatchLoop collects pending items into batches and services them. The
// timer and the pendings slice are allocated once and reused by every
// batch.
func (c *Coalescer[Q, R]) dispatchLoop() {
	defer c.wg.Done()
	timer := time.NewTimer(c.cfg.MaxDelay)
	timer.Stop()
	pendings := make([]item[Q, R], 0, c.cfg.MaxBatch)
	for {
		// Block for the first item (or shutdown).
		select {
		case first := <-c.queue:
			pendings = append(pendings[:0], first)
		case <-c.done:
			c.failRemaining()
			return
		}
		if window := c.window(); window < minTimerWindow {
			// Too short for a timer to honour: let callers that are
			// already runnable reach their enqueue, then take what is
			// queued and go.
			runtime.Gosched()
		drain:
			for len(pendings) < c.cfg.MaxBatch {
				select {
				case it := <-c.queue:
					pendings = append(pendings, it)
				default:
					break drain
				}
			}
		} else {
			timer.Reset(window)
		fill:
			for len(pendings) < c.cfg.MaxBatch {
				select {
				case it := <-c.queue:
					pendings = append(pendings, it)
				case <-timer.C:
					break fill
				case <-c.done:
					break fill
				}
			}
			timer.Stop()
		}
		c.serveBatch(pendings)
		clear(pendings) // do not pin served items' payloads while idle
	}
}

// window is the admission window of the next batch: the smoothed service
// time, capped by MaxDelay.
func (c *Coalescer[Q, R]) window() time.Duration {
	return min(c.cfg.MaxDelay, time.Duration(c.service.Load()))
}

// serveBatch invokes the batch function, folds its duration into the
// service-time estimate and delivers index-aligned results. A short result
// slice is a contract violation: the uncovered items fail rather than hang.
func (c *Coalescer[Q, R]) serveBatch(pendings []item[Q, R]) {
	items := make([]Q, len(pendings))
	start := time.Now()
	var waited time.Duration
	for i, it := range pendings {
		items[i] = it.q
		waited += start.Sub(it.enq)
	}
	c.mu.Lock()
	c.stats.Items += int64(len(pendings))
	c.stats.Batches++
	first := c.stats.Batches == 1
	c.stats.QueueWait += waited
	if len(pendings) > c.stats.MaxBatch {
		c.stats.MaxBatch = len(pendings)
	}
	c.mu.Unlock()

	results := c.run(items)
	// The first measurement replaces the MaxDelay seed outright: decaying
	// from the seed would charge a fast batch function about ten timer
	// windows on every new Coalescer.
	d, est := int64(time.Since(start)), c.service.Load()
	if first {
		est = d
	} else {
		est += (d - est) / serviceGain
	}
	c.service.Store(est)
	for i, it := range pendings {
		if i < len(results) {
			it.done <- result[R]{r: results[i]}
		} else {
			it.done <- result[R]{err: errShortBatch}
		}
	}
}

// failRemaining answers queued items with ErrClosed.
func (c *Coalescer[Q, R]) failRemaining() {
	for {
		select {
		case it := <-c.queue:
			it.done <- result[R]{err: ErrClosed}
		default:
			return
		}
	}
}
