package router

import (
	"testing"
	"time"
)

// clockBreaker returns a breaker on a manual clock.
func clockBreaker() (*breaker, *time.Time) {
	b := newBreaker()
	clk := time.Unix(1000, 0)
	b.now = func() time.Time { return clk }
	return b, &clk
}

// fail records n consecutive failures.
func fail(b *breaker, n int) {
	for range n {
		b.Record(false)
	}
}

func TestBreakerTripsOnConsecutiveFailuresOnly(t *testing.T) {
	b, _ := clockBreaker()
	// Interleaved successes keep resetting the streak: never trips.
	for i := 0; i < 10; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker rejected live traffic at %d", i)
		}
		fail(b, breakerThreshold-1)
		b.Record(true)
	}
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %v after interleaved failures, want closed", got)
	}
	if b.Trips() != 0 {
		t.Fatalf("trips %d, want 0", b.Trips())
	}
	// breakerThreshold consecutive failures trip it.
	fail(b, breakerThreshold)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %v after threshold failures, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted live traffic")
	}
	if b.AllowProbe() {
		t.Fatal("open breaker admitted a probe before cooldown")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips %d, want 1", b.Trips())
	}
}

func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	b, clk := clockBreaker()
	fail(b, breakerThreshold)
	// Cooldown elapses: exactly one probe is admitted; live traffic and
	// concurrent probes stay out.
	*clk = clk.Add(breakerCooldown)
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state %v past cooldown, want half-open", got)
	}
	if !b.AllowProbe() {
		t.Fatal("half-open breaker rejected the probe")
	}
	if b.AllowProbe() {
		t.Fatal("second concurrent probe admitted")
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted live traffic during probe")
	}
	// Probe success closes the circuit.
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %v after good probe, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker rejected live traffic after recovery")
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b, clk := clockBreaker()
	fail(b, breakerThreshold)
	*clk = clk.Add(breakerCooldown)
	if !b.AllowProbe() {
		t.Fatal("probe rejected")
	}
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %v after failed probe, want open", got)
	}
	if b.Trips() != 2 {
		t.Fatalf("trips %d, want 2 (initial + failed probe)", b.Trips())
	}
	// The cooldown restarted at the failed probe: no probe admitted yet.
	if b.AllowProbe() {
		t.Fatal("probe admitted before the restarted cooldown elapsed")
	}
	*clk = clk.Add(breakerCooldown)
	if !b.AllowProbe() {
		t.Fatal("probe rejected after restarted cooldown")
	}
	b.Record(true)
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state %v, want closed", got)
	}
}

func TestBreakerLateRecordIgnored(t *testing.T) {
	b, _ := clockBreaker()
	if !b.Allow() {
		t.Fatal("closed breaker rejected")
	}
	fail(b, breakerThreshold) // trips
	// A straggler request admitted before the trip reports back late;
	// the breaker's decision stands.
	b.Record(true)
	b.Record(false)
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state %v after late records, want open", got)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips %d, want 1", b.Trips())
	}
}
