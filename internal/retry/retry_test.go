package retry

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestBackoffDeterministicAndMonotoneBase(t *testing.T) {
	p := Policy{BaseBackoff: time.Millisecond}
	// The schedule is a pure function of the attempt number: same inputs,
	// same delays, run after run.
	for attempt := 0; attempt < 8; attempt++ {
		a, b := p.Backoff(attempt), p.Backoff(attempt)
		if a != b {
			t.Fatalf("attempt %d: non-deterministic backoff %v vs %v", attempt, a, b)
		}
		if a < time.Millisecond<<uint(attempt) {
			t.Fatalf("attempt %d: delay %v below exponential base", attempt, a)
		}
	}
	if p.Backoff(-1) != p.Backoff(0) {
		t.Fatal("negative attempt not clamped")
	}
}

func TestBackoffCapAndOverflowClamp(t *testing.T) {
	// The doubling stops at attempt 30: later attempts differ only by the
	// jitter, which is at most one BaseBackoff, and never overflow.
	p := Policy{BaseBackoff: time.Millisecond}
	capped := time.Millisecond << 30
	for _, attempt := range []int{30, 31, 32, 64, 1 << 20} {
		if d := p.Backoff(attempt); d < capped || d > capped+time.Millisecond {
			t.Fatalf("attempt %d: delay %v, want within [%v, %v]", attempt, d, capped, capped+time.Millisecond)
		}
	}
}

func TestDoZeroPolicyTriesOnce(t *testing.T) {
	calls := 0
	err := Policy{}.Do(context.Background(),
		func(context.Context) error { calls++; return errors.New("down") }, nil)
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d, want the error after 1 call", err, calls)
	}
}

func TestSleepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(5 * time.Millisecond); cancel() }()
	start := time.Now()
	err := Sleep(ctx, 10*time.Second)
	if err == nil {
		t.Fatal("cancelled sleep returned nil")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled sleep took %v", elapsed)
	}
}

func TestDoRetriesThenSucceeds(t *testing.T) {
	calls := 0
	err := Policy{MaxRetries: 3, BaseBackoff: time.Microsecond}.Do(context.Background(),
		func(context.Context) error {
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		}, nil)
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}

func TestDoTerminalErrorSkipsRetry(t *testing.T) {
	terminal := errors.New("terminal")
	calls := 0
	err := Policy{MaxRetries: 5, BaseBackoff: time.Microsecond}.Do(context.Background(),
		func(context.Context) error { calls++; return terminal },
		func(err error) bool { return !errors.Is(err, terminal) })
	if !errors.Is(err, terminal) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want terminal after 1 call", err, calls)
	}
}

func TestDoExhaustionReturnsLastError(t *testing.T) {
	last := errors.New("still failing")
	calls := 0
	err := Policy{MaxRetries: 2, BaseBackoff: time.Microsecond}.Do(context.Background(),
		func(context.Context) error { calls++; return last }, nil)
	if !errors.Is(err, last) || calls != 3 {
		t.Fatalf("err=%v calls=%d, want last error after 3 calls", err, calls)
	}
}

func TestDoCancelledContextStopsWithinOneTick(t *testing.T) {
	// A cancelled caller must not wait out the remaining backoff schedule:
	// with a 10s base delay, Do has to return as soon as the context dies.
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- Policy{MaxRetries: 4, BaseBackoff: 10 * time.Second}.Do(ctx,
			func(context.Context) error {
				select {
				case <-started:
				default:
					close(started)
				}
				return boom
			}, nil)
	}()
	<-started
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("err=%v, want the attempt error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do still sleeping after cancellation")
	}
}
