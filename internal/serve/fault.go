package serve

import (
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/httpkit"
)

// FaultMode is one injected failure behaviour of a FaultGate.
type FaultMode int32

const (
	// FaultNone passes requests through untouched.
	FaultNone FaultMode = iota
	// FaultError answers every request with 503, the well-behaved-crash
	// shape (the process is up, the service is not).
	FaultError
	// FaultStall sleeps the configured delay before serving, the
	// overloaded/GC-pause shape that trips per-shard deadlines.
	FaultStall
	// FaultDown severs the connection without writing a response, the
	// kill -9 / unplugged-network shape: clients see a transport error,
	// not an HTTP status.
	FaultDown
)

// String names the mode for logs and health output.
func (m FaultMode) String() string {
	switch m {
	case FaultNone:
		return "none"
	case FaultError:
		return "error"
	case FaultStall:
		return "stall"
	case FaultDown:
		return "down"
	default:
		return "unknown"
	}
}

// FaultGate is a fault injector: an HTTP middleware that can make a
// healthy backend misbehave on demand — 5xx every request, stall past a
// deadline, or drop connections cold — so the router's degraded-recall
// path is exercised against real sockets. Mode changes are atomic and take effect on the next request;
// Clear restores pass-through, which is how a "revived" shard re-enters
// service through the router's half-open breaker probe.
type FaultGate struct {
	mode  atomic.Int32
	stall atomic.Int64 // nanoseconds, for FaultStall
}

// NewFaultGate returns a pass-through gate.
func NewFaultGate() *FaultGate { return &FaultGate{} }

// Set switches the gate's failure mode.
func (g *FaultGate) Set(m FaultMode) { g.mode.Store(int32(m)) }

// SetStall switches to FaultStall with the given added latency.
func (g *FaultGate) SetStall(d time.Duration) {
	g.stall.Store(int64(d))
	g.mode.Store(int32(FaultStall))
}

// Clear restores pass-through.
func (g *FaultGate) Clear() { g.mode.Store(int32(FaultNone)) }

// Mode reports the current failure mode.
func (g *FaultGate) Mode() FaultMode { return FaultMode(g.mode.Load()) }

// Wrap gates next behind the current failure mode.
func (g *FaultGate) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch g.Mode() {
		case FaultError:
			http.Error(w, "fault injection: forced 503", http.StatusServiceUnavailable)
			return
		case FaultStall:
			d := time.Duration(g.stall.Load())
			if d <= 0 {
				d = 100 * time.Millisecond
			}
			// Honour the request's own cancellation so a stalled shard
			// doesn't pin goroutines after the router gave up on it.
			select {
			case <-time.After(d):
			case <-r.Context().Done():
				return
			}
		case FaultDown:
			// Hijack and close without a response: the client observes a
			// connection error, exactly like a killed process.
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			// Fall back to an empty 503 when the writer can't hijack.
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// StartFaulty is Server.Start behind a FaultGate: the returned gate
// controls every request the listener accepts. The router tests use it
// to kill/stall/5xx one shard of a fleet mid-run.
func (s *Server) StartFaulty(addr string) (*FaultGate, error) {
	gate := NewFaultGate()
	var err error
	s.httpSrv, s.addr, err = httpkit.Start(addr, func() http.Handler { return gate.Wrap(s.Handler()) })
	if err != nil {
		return nil, err
	}
	return gate, nil
}
