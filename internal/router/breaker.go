package router

import (
	"sync"
	"time"
)

// BreakerState is one of the circuit breaker's three states.
type BreakerState int32

const (
	// BreakerClosed passes traffic and counts consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects traffic until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits exactly one probe request; its outcome
	// closes the breaker again or re-opens it for another cooldown.
	BreakerHalfOpen
)

// String names the state for health output and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

const (
	// breakerThreshold is the consecutive-failure count that trips a
	// shard's breaker.
	breakerThreshold = 3
	// breakerCooldown is how long a tripped breaker rejects before
	// admitting a half-open probe.
	breakerCooldown = 500 * time.Millisecond
)

// breaker is the per-shard consecutive-failure circuit breaker:
//
//	closed --(breakerThreshold consecutive failures)--> open
//	open   --(breakerCooldown elapsed)--> half-open, one probe admitted
//	half-open --(probe ok)--> closed        (probe fail)--> open
//
// It deliberately trips on *consecutive* failures, not a rate: one slow
// request in a healthy stream must not shed a shard (that would silently
// lose its slice of the corpus), while a dead shard fails every call and
// trips within breakerThreshold batches.
type breaker struct {
	now func() time.Time // injectable for tests

	mu       sync.Mutex
	state    BreakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
	trips    int64
}

func newBreaker() *breaker {
	return &breaker{now: time.Now}
}

// Allow reports whether live traffic may proceed: only in the closed
// state. Open and half-open both reject, so client batches never pay the
// latency of poking a possibly-still-dead shard — recovery is the health
// prober's job via AllowProbe.
func (b *breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state == BreakerClosed
}

// AllowProbe reports whether a half-open probe may proceed. In the open
// state it transitions to half-open once the cooldown has elapsed and
// admits a single probe; concurrent probes are rejected until the one in
// flight Records its outcome.
func (b *breaker) AllowProbe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < breakerCooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Record reports a request outcome. Only callers that got true from Allow
// should Record, and exactly once per allowed request.
func (b *breaker) Record(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		if ok {
			b.fails = 0
			return
		}
		b.fails++
		if b.fails >= breakerThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.probing = false
		if ok {
			b.state = BreakerClosed
			b.fails = 0
		} else {
			b.trip()
		}
	case BreakerOpen:
		// A late Record from a request admitted before the trip; the
		// breaker has already made its decision.
	}
}

// trip moves to open; callers hold b.mu.
func (b *breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.fails = 0
	b.probing = false
	b.trips++
}

// State returns the current state, applying the open→half-open transition
// lazily so health output doesn't report a stale "open" past the cooldown.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= breakerCooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// Trips reports how many times the breaker has tripped.
func (b *breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// ConsecutiveFails reports the current closed-state failure streak.
func (b *breaker) ConsecutiveFails() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.fails
}
