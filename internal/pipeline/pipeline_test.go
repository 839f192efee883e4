package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderPreserved(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out, err := Map(context.Background(), items, 8, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapErrorIsolation(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5}
	out, err := Map(context.Background(), items, 3, func(_ context.Context, i int) (int, error) {
		if i%2 == 1 {
			return 0, fmt.Errorf("odd %d", i)
		}
		return i * 10, nil
	})
	var merr *MapError
	if !errors.As(err, &merr) {
		t.Fatalf("error type %T", err)
	}
	if len(merr.Failures) != 3 {
		t.Fatalf("%d failures", len(merr.Failures))
	}
	// Successful items are still present.
	if out[0] != 0 || out[2] != 20 || out[4] != 40 {
		t.Fatalf("successes lost: %v", out)
	}
}

func TestMapPanicIsolation(t *testing.T) {
	items := []int{1, 2, 3}
	_, err := Map(context.Background(), items, 2, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			panic("boom")
		}
		return i, nil
	})
	var merr *MapError
	if !errors.As(err, &merr) {
		t.Fatalf("panic not converted: %v", err)
	}
	if len(merr.Failures) != 1 || !strings.Contains(merr.Failures[1].Error(), "panic") {
		t.Fatalf("failures: %v", merr.Failures)
	}
}

func TestMapCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started int32
	items := make([]int, 1000)
	_, err := Map(ctx, items, 2, func(ctx context.Context, i int) (int, error) {
		if atomic.AddInt32(&started, 1) == 4 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if atomic.LoadInt32(&started) > 100 {
		t.Fatalf("cancellation did not stop dispatch: %d started", started)
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(context.Background(), []int(nil), 4, func(_ context.Context, i int) (int, error) { return i, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestForEach(t *testing.T) {
	var sum int64
	err := ForEach(context.Background(), []int{1, 2, 3, 4}, 2, func(_ context.Context, i int) error {
		atomic.AddInt64(&sum, int64(i))
		return nil
	})
	if err != nil || sum != 10 {
		t.Fatalf("sum=%d err=%v", sum, err)
	}
}

// onTestGoroutine reports whether the running goroutine is a test's own,
// whose stack bottoms out in testing.tRunner; a worker goroutine's does not.
func onTestGoroutine() bool {
	buf := make([]byte, 8<<10)
	return bytes.Contains(buf[:runtime.Stack(buf, false)], []byte("testing.tRunner("))
}

func TestFor(t *testing.T) {
	for _, n := range []int{0, 1, 3, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 64} {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, workers), func(t *testing.T) {
				runs := make([]atomic.Int32, n)
				plain := 0 // written without synchronisation: only safe inline
				var offCaller atomic.Int32
				For(n, workers, func(i int) {
					runs[i].Add(1)
					if workers == 1 {
						plain++
						if !onTestGoroutine() {
							offCaller.Add(1)
						}
					}
				})
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Fatalf("index %d ran %d times, want 1", i, got)
					}
				}
				if workers == 1 && (plain != n || offCaller.Load() != 0) {
					t.Fatalf("workers=1: inline counter %d of %d, %d item(s) off the caller's goroutine", plain, n, offCaller.Load())
				}
			})
		}
	}
}

func BenchmarkMapThroughput(b *testing.B) {
	items := make([]int, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Map(context.Background(), items, 0, func(_ context.Context, v int) (int, error) {
			return v + 1, nil
		})
	}
}
