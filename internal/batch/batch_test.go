package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// double answers each int with its double.
func double(items []int) []int {
	out := make([]int, len(items))
	for i, v := range items {
		out[i] = v * 2
	}
	return out
}

func TestDoRoundTrip(t *testing.T) {
	c := New(Config{}, double)
	defer c.Close()
	got, err := c.Do(context.Background(), 21)
	if err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestCoalescing(t *testing.T) {
	var maxBatch int32
	run := func(items []int) []int {
		for {
			m := atomic.LoadInt32(&maxBatch)
			if int32(len(items)) <= m || atomic.CompareAndSwapInt32(&maxBatch, m, int32(len(items))) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return double(items)
	}
	c := New(Config{MaxBatch: 8, MaxDelay: 5 * time.Millisecond}, run)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make([]error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Do(context.Background(), i)
			if err == nil && got != i*2 {
				err = fmt.Errorf("item %d answered %d", i, got)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if atomic.LoadInt32(&maxBatch) < 2 {
		t.Fatalf("no coalescing observed (max batch %d)", maxBatch)
	}
	st := c.Stats()
	if st.Items != 64 || st.Batches < 8 || st.MaxBatch > 8 {
		t.Fatalf("stats %+v", st)
	}
}

func TestResultsAlignedUnderConcurrency(t *testing.T) {
	c := New(Config{MaxBatch: 4, MaxDelay: time.Millisecond}, double)
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if got, err := c.Do(context.Background(), i); err != nil || got != i*2 {
				t.Errorf("item %d: got %d err %v", i, got, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestClosed(t *testing.T) {
	c := New(Config{}, double)
	c.Close()
	if _, err := c.Do(context.Background(), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("err %v", err)
	}
	c.Close() // idempotent
}

func TestCloseAnswersEveryAcceptedItem(t *testing.T) {
	// Hammer Close against concurrent Do: every call must either complete
	// or fail with ErrClosed — never hang. Once per dispatch branch: a
	// window below minTimerWindow is yield-and-drain from the first batch,
	// one above it arms the timer.
	for name, delay := range map[string]time.Duration{
		"yield-and-drain": 50 * time.Microsecond,
		"timer":           2 * time.Millisecond,
	} {
		t.Run(name, func(t *testing.T) {
			if (delay < minTimerWindow) != (name == "yield-and-drain") {
				t.Fatalf("MaxDelay %v no longer selects the %s branch", delay, name)
			}
			for round := 0; round < 20; round++ {
				c := New(Config{MaxBatch: 4, MaxDelay: delay}, double)
				var wg sync.WaitGroup
				for i := 0; i < 16; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						got, err := c.Do(context.Background(), i)
						if err == nil && got != i*2 {
							t.Errorf("item %d answered %d", i, got)
						} else if err != nil && !errors.Is(err, ErrClosed) {
							t.Errorf("item %d: %v", i, err)
						}
					}(i)
				}
				c.Close()
				wg.Wait()
			}
		})
	}
}

// loopDo runs n sequential Do calls on each of callers goroutines and
// returns the mean latency of one call.
func loopDo(t *testing.T, c *Coalescer[int, int], callers, n int) time.Duration {
	t.Helper()
	var total atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				start := time.Now()
				if got, err := c.Do(context.Background(), i); err != nil || got != i*2 {
					t.Errorf("item %d: got %d err %v", i, got, err)
					return
				}
				total.Add(int64(time.Since(start)))
			}
		}()
	}
	wg.Wait()
	return time.Duration(total.Load() / int64(callers*n))
}

func TestFastFuncStopsWaiting(t *testing.T) {
	// A batch function that costs microseconds must not charge each caller
	// MaxDelay: after warm-up the window has followed the service time
	// below what a timer can honour, and a call costs a small fraction of
	// the cap.
	const maxDelay = 4 * time.Millisecond
	c := New(Config{MaxDelay: maxDelay}, double)
	defer c.Close()
	if w := c.Stats().Window; w != maxDelay {
		t.Fatalf("window before any batch = %v, want the cap %v (assume slow until measured)", w, maxDelay)
	}
	loopDo(t, c, 2, 50) // warm-up: the first batch replaces the seed
	if w := c.Stats().Window; w >= minTimerWindow {
		t.Fatalf("window after warm-up = %v, want below %v", w, minTimerWindow)
	}
	if mean := loopDo(t, c, 2, 500); mean >= maxDelay/4 {
		t.Fatalf("mean Do latency %v with a ~0 batch function, want < %v", mean, maxDelay/4)
	}
}

func TestFirstBatchReplacesSeed(t *testing.T) {
	// The MaxDelay seed holds only until the first batch is measured: one
	// fast batch takes the window below what a timer is armed for, so the
	// next caller does not sit out a decaying seed.
	c := New(Config{MaxDelay: 2 * time.Millisecond}, double)
	defer c.Close()
	if _, err := c.Do(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if w := c.Stats().Window; w >= minTimerWindow {
		t.Fatalf("window after one fast batch = %v, want below %v", w, minTimerWindow)
	}
}

func TestSlowFuncKeepsFilling(t *testing.T) {
	// A batch function at least as slow as MaxDelay keeps the full window:
	// eight closed-loop callers keep landing in the same batch instead of
	// splitting into one early bird and the rest.
	const maxDelay = 5 * time.Millisecond
	c := New(Config{MaxBatch: 16, MaxDelay: maxDelay}, func(items []int) []int {
		time.Sleep(2 * maxDelay)
		return double(items)
	})
	defer c.Close()
	loopDo(t, c, 8, 10)
	st := c.Stats()
	if st.Window != maxDelay {
		t.Fatalf("window %v with a %v batch function, want the cap %v", st.Window, 2*maxDelay, maxDelay)
	}
	if mean := float64(st.Items) / float64(st.Batches); mean < 4 {
		t.Fatalf("mean batch %.2f (%d items, %d batches), want >= 4", mean, st.Items, st.Batches)
	}
	// Every item sat out (most of) a window or a service time in the
	// queue; the cumulative wait says so.
	if st.QueueWait < time.Duration(st.Batches)*maxDelay {
		t.Fatalf("queue wait %v over %d batches, want at least one %v window each", st.QueueWait, st.Batches, maxDelay)
	}
}

func TestFirstBatchWaitsFullWindow(t *testing.T) {
	// Until a batch has been measured the estimate is MaxDelay, so a lone
	// first item waits the whole cap for batchmates, however fast the
	// batch function turns out to be.
	const maxDelay = 30 * time.Millisecond
	c := New(Config{MaxDelay: maxDelay}, double)
	defer c.Close()
	start := time.Now()
	if _, err := c.Do(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited < maxDelay {
		t.Fatalf("first Do returned after %v, want >= %v", waited, maxDelay)
	}
	if w := c.Stats().Window; w >= maxDelay {
		t.Fatalf("window %v did not move off the cap after a fast batch", w)
	}
}

func TestContextCancelled(t *testing.T) {
	block := make(chan struct{})
	c := New(Config{MaxDelay: time.Millisecond}, func(items []int) []int {
		<-block
		return double(items)
	})
	defer func() { close(block); c.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := c.Do(ctx, 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v", err)
	}
}

func TestShortResultSliceFails(t *testing.T) {
	c := New(Config{}, func(items []int) []int { return nil })
	defer c.Close()
	if _, err := c.Do(context.Background(), 1); err == nil {
		t.Fatal("short batch result did not surface as an error")
	}
}

// BenchmarkDoFastFunc is the per-call cost two closed-loop callers pay
// around a batch function that does no work — the regime where any
// admission wait is pure loss.
func BenchmarkDoFastFunc(b *testing.B) {
	c := New(Config{}, double)
	defer c.Close()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < b.N/2; i++ {
				if _, err := c.Do(context.Background(), i); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
