// Package pipeline is the workflow-execution substrate standing in for
// Parsl in the paper's HPC pipeline: the data-parallel map stages (parse,
// chunk, generate, distil, embed) the paper runs to process 22,548
// documents and 173,318 chunks on ALCF machines. For is the one parallel
// loop; Map and ForEach add per-item fault isolation and cancellation on
// top of it.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(i) for every i in [0, n), on at most workers goroutines and
// never more than n; workers <= 0 selects GOMAXPROCS. With one worker it
// runs inline on the caller's goroutine: retrieval micro-batches are often
// 1-32 queries, and a fan-out of GOMAXPROCS goroutines per call would
// dominate the cost of embedding a single query. Otherwise items are
// claimed through an atomic cursor.
func For(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// MapError aggregates per-item failures from a Map stage.
type MapError struct {
	Failures map[int]error // item index → error
}

func (e *MapError) Error() string {
	return fmt.Sprintf("pipeline: %d item(s) failed", len(e.Failures))
}

// Map applies fn to every item with the given parallelism, preserving
// order. Item failures (including panics) are isolated: all items are
// attempted, successes are returned, and a *MapError reports the failures.
// workers <= 0 selects GOMAXPROCS. Cancellation stops dispatch of new
// items; in-flight items finish.
func Map[I, O any](ctx context.Context, items []I, workers int, fn func(context.Context, I) (O, error)) ([]O, error) {
	out := make([]O, len(items))
	failures := make(map[int]error)
	var mu sync.Mutex // guards failures
	For(len(items), workers, func(i int) {
		if ctx.Err() != nil {
			return
		}
		v, err := runItem(ctx, items[i], fn)
		if err != nil {
			mu.Lock()
			failures[i] = err
			mu.Unlock()
			return
		}
		out[i] = v
	})
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if len(failures) > 0 {
		return out, &MapError{Failures: failures}
	}
	return out, nil
}

func runItem[I, O any](ctx context.Context, item I, fn func(context.Context, I) (O, error)) (v O, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pipeline: item panic: %v", r)
		}
	}()
	return fn(ctx, item)
}

// ForEach is Map without collected outputs.
func ForEach[I any](ctx context.Context, items []I, workers int, fn func(context.Context, I) error) error {
	_, err := Map(ctx, items, workers, func(ctx context.Context, it I) (struct{}, error) {
		return struct{}{}, fn(ctx, it)
	})
	return err
}
