// Package pipeline is the workflow-execution substrate standing in for
// Parsl in the paper's HPC pipeline: data-parallel map stages with worker
// pools and futures, plus a checkpointing DAG engine that skips completed
// stages on restart — the execution model the paper relies on to process
// 22,548 documents and 173,318 chunks on ALCF machines.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Future is a single-assignment result slot.
type Future[T any] struct {
	done chan struct{}
	val  T
	err  error
}

// NewFuture returns an unresolved future.
func NewFuture[T any]() *Future[T] {
	return &Future[T]{done: make(chan struct{})}
}

// Resolve sets the result exactly once; later calls are ignored.
func (f *Future[T]) Resolve(val T, err error) {
	select {
	case <-f.done:
	default:
		f.val, f.err = val, err
		close(f.done)
	}
}

// Get blocks until resolution or context cancellation.
func (f *Future[T]) Get(ctx context.Context) (T, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// Go runs fn asynchronously and returns its future. A panic in fn resolves
// the future with an error instead of crashing the program (per-task fault
// isolation, as a workflow engine must provide).
func Go[T any](fn func() (T, error)) *Future[T] {
	f := NewFuture[T]()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				var zero T
				f.Resolve(zero, fmt.Errorf("pipeline: task panic: %v", r))
			}
		}()
		f.Resolve(fn())
	}()
	return f
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
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]O, len(items))
	failures := make(map[int]error)
	var mu sync.Mutex     // guards failures
	var next atomic.Int64 // index of the next item to hand out
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1) - 1)
				if i >= len(items) {
					return
				}
				v, err := runItem(ctx, items[i], fn)
				if err != nil {
					mu.Lock()
					failures[i] = err
					mu.Unlock()
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
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
