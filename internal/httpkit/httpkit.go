// Package httpkit is the HTTP scaffolding under internal/serve's handler
// set, which both serving tiers run (a backend, and the router as a
// serve.Server over its shards): bounded JSON request decoding, JSON and
// traced response encoding, the /metrics, /debug/slowlog and /debug/pprof
// handlers, and the listen/serve/drain lifecycle. The router's own
// listener and /healthz use the lifecycle and JSON encoding too. Plain
// functions over the callers' own state; nothing here knows about routes,
// shards or indexes.
package httpkit

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// maxRequestBytes bounds one request body.
const maxRequestBytes = 16 << 20

// Decode reads a JSON request body of at most 16 MiB into dst. On failure
// it counts the error, answers 400 and returns false.
func Decode(w http.ResponseWriter, r *http.Request, errs *metrics.Counter, dst any) bool {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBytes))
	if err != nil {
		errs.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return false
	}
	if err := json.Unmarshal(body, dst); err != nil {
		errs.Inc()
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// WriteJSON writes v as the JSON response body.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

// EncodeTraced writes the JSON response under an "encode" span and the
// tier's encode-stage histogram — the last hop of a traced request's life.
func EncodeTraced(w http.ResponseWriter, tr *obs.Trace, encode *metrics.Histogram, v any) {
	start := time.Now()
	WriteJSON(w, v)
	d := time.Since(start)
	encode.Observe(d)
	tr.AddSpan("encode", start, d)
}

// WriteMetrics writes the registry's text exposition.
func WriteMetrics(w http.ResponseWriter, reg *metrics.Registry) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	reg.WriteTo(w) //nolint:errcheck // client went away
}

// MountDebug registers the debug surface on mux: GET /debug/slowlog/<route>
// serving each route's retained slowest traces (404 for a route not in
// slow), and, when withPprof is set, net/http/pprof under /debug/pprof/.
func MountDebug(mux *http.ServeMux, slow map[string]*obs.SlowLog, withPprof bool) {
	mux.HandleFunc("GET /debug/slowlog/{route...}", func(w http.ResponseWriter, r *http.Request) {
		name := r.PathValue("route")
		sl, ok := slow[name]
		if !ok {
			names := make([]string, 0, len(slow))
			for n := range slow {
				names = append(names, n)
			}
			sort.Strings(names)
			http.Error(w, fmt.Sprintf("unknown route %q (have: %s)", name, strings.Join(names, ", ")), http.StatusNotFound)
			return
		}
		WriteJSON(w, obs.SlowLogPage{Route: name, Slowest: sl.Snapshot()})
	})
	if withPprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
}

// Start binds addr ("127.0.0.1:0" for an ephemeral port) and serves
// handler() in the background until the returned server is shut down; the
// second result is the bound address. handler is called only once the bind
// has succeeded, so a failed Start leaves nothing running.
func Start(addr string, handler func() http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: handler(), ReadTimeout: 30 * time.Second}
	go srv.Serve(ln) //nolint:errcheck // Serve returns on Shutdown
	return srv, ln.Addr().String(), nil
}

// Shutdown stops srv accepting and lets in-flight requests finish within
// ctx. A nil srv (a tier that was never started) is a no-op.
func Shutdown(ctx context.Context, srv *http.Server) error {
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// Close runs a tier's Shutdown under the bounded drain window both tiers
// give a plain Close.
func Close(shutdown func(context.Context) error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return shutdown(ctx)
}
