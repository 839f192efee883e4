// Package retry is the bounded-retry policy of the router's shard fan-out,
// the one call in the repo that can fail transiently: exponential backoff
// with deterministic jitter (no wall-clock randomness, so runs stay
// reproducible) and sleeps that abort the moment the caller's context is
// cancelled, so a closing router or a departed client never waits out a
// full backoff schedule. Sleep is also the repo's one sanctioned
// cancellable sleep (raglint's nosleep analyzer).
package retry

import (
	"context"
	"time"
)

// Policy bounds a retry loop: how many re-attempts after the first try,
// and how the delay between them grows.
type Policy struct {
	// MaxRetries is the number of re-attempts after the initial one.
	MaxRetries int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt, plus deterministic jitter.
	BaseBackoff time.Duration
}

// Backoff returns the delay before retry number attempt+1 (attempt counts
// from 0): BaseBackoff << attempt plus a deterministic jitter derived from
// the attempt number.
func (p Policy) Backoff(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	// Clamp the shift so a pathological attempt count cannot overflow.
	shift := uint(attempt)
	if shift > 30 {
		shift = 30
	}
	delay := p.BaseBackoff << shift
	delay += time.Duration(attempt*7%5) * p.BaseBackoff / 4
	return delay
}

// Sleep blocks for d or until ctx is done, whichever comes first, and
// reports why it woke: nil after a full sleep, ctx.Err() on cancellation.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Do runs fn up to 1+MaxRetries times, sleeping the backoff schedule
// between attempts. retryable decides whether an error is worth another
// attempt (nil means every error is); terminal errors and exhaustion both
// surface the last error. A cancelled ctx aborts the backoff sleep
// immediately and returns the attempt's error (which usually already
// carries the cancellation).
func (p Policy) Do(ctx context.Context, fn func(ctx context.Context) error, retryable func(error) bool) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = fn(ctx)
		if err == nil {
			return nil
		}
		if attempt >= p.MaxRetries || (retryable != nil && !retryable(err)) {
			return err
		}
		if ctx.Err() != nil {
			return err
		}
		if serr := Sleep(ctx, p.Backoff(attempt)); serr != nil {
			return err
		}
	}
}
