package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/obs"
)

func spanNames(spans []obs.Span) map[string]bool {
	out := make(map[string]bool, len(spans))
	for _, sp := range spans {
		out[sp.Name] = true
	}
	return out
}

func fetchSlowlog(t *testing.T, addr, route string) obs.SlowLogPage {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/debug/slowlog/" + route)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slowlog status %d", resp.StatusCode)
	}
	var page obs.SlowLogPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page
}

// TestTimingAndSlowlog exercises the tracing surface end to end on one
// server: an opt-in Timing request carries back the propagated trace id
// and the full stage timeline, a cache hit reports only the cache stage,
// and the completed trace is retrievable from /debug/slowlog/<route>.
func TestTimingAndSlowlog(t *testing.T) {
	s, _, chunks := testServer(t, 64, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)

	// The client propagates a context trace's id via X-Trace-Id, and the
	// handler adopts it instead of minting its own.
	const traceID = "e2e-serve-trace-1"
	ctx := obs.WithTrace(context.Background(), obs.NewTrace(traceID))
	resp, err := c.SearchRouteReqCtx(ctx, RouteChunks, SearchRequest{
		Query: chunks[5].Text, K: 3, Timing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Timing == nil {
		t.Fatal("timing requested but response.timing is nil")
	}
	if resp.Timing.TraceID != traceID {
		t.Fatalf("trace id not adopted: got %q want %q", resp.Timing.TraceID, traceID)
	}
	names := spanNames(resp.Timing.Spans)
	for _, want := range []string{"queue", "cache", "embed", "scan", "merge"} {
		if !names[want] {
			t.Fatalf("miss-path timeline lacks %q span: %+v", want, resp.Timing.Spans)
		}
	}

	// Same query again: a cache hit books only the cache stage — no queue
	// wait, no kernel stages.
	hit, err := c.SearchRouteReqCtx(context.Background(), RouteChunks, SearchRequest{
		Query: chunks[5].Text, K: 3, Timing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hit.Timing == nil {
		t.Fatal("timing requested but cache-hit response.timing is nil")
	}
	hitNames := spanNames(hit.Timing.Spans)
	if !hitNames["cache"] || hitNames["scan"] || hitNames["queue"] {
		t.Fatalf("cache-hit timeline should be cache-only: %+v", hit.Timing.Spans)
	}

	// Without the opt-in flag the response carries no timing payload.
	plain, err := c.SearchRoute(RouteChunks, chunks[6].Text, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Timing != nil {
		t.Fatalf("timing not requested but present: %+v", plain.Timing)
	}

	// The completed trace is retrievable from the debug slowlog, spans
	// included.
	page := fetchSlowlog(t, s.Addr(), RouteChunks)
	if page.Route != RouteChunks {
		t.Fatalf("slowlog route %q", page.Route)
	}
	var rec *obs.TraceRecord
	for i := range page.Slowest {
		if page.Slowest[i].TraceID == traceID {
			rec = &page.Slowest[i]
		}
	}
	if rec == nil {
		t.Fatalf("trace %q not in slowlog: %+v", traceID, page.Slowest)
	}
	if rec.Op != "search" || len(rec.Spans) == 0 {
		t.Fatalf("slowlog record %+v", rec)
	}
	if rec.Detail == "" {
		t.Fatal("slowlog record lost the query detail")
	}

	// Unknown route 404s rather than minting an empty page.
	r404, err := http.Get("http://" + s.Addr() + "/debug/slowlog/nope")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown slowlog route: status %d", r404.StatusCode)
	}
}

// TestStageHistogramsRegistered checks the per-stage histograms feed the
// metrics registry under the documented names.
func TestStageHistogramsRegistered(t *testing.T) {
	s, _, chunks := testServer(t, 64, DefaultConfig())
	c := NewClient("http://"+s.Addr(), nil)
	if _, err := c.SearchRoute(RouteChunks, chunks[9].Text, 2, ""); err != nil {
		t.Fatal(err)
	}
	snap := s.Registry().Snapshot()
	for _, stage := range []string{"queue", "cache", "embed", "scan", "merge", "encode"} {
		h := snap.Histograms["serve."+RouteChunks+".stage."+stage]
		if h.Total == 0 {
			t.Fatalf("stage histogram serve.%s.stage.%s has no samples", RouteChunks, stage)
		}
	}
}

// TestPprofGatedByDebug: the pprof surface exists iff Config.Debug is set.
func TestPprofGatedByDebug(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Debug = true
	s, _, _ := testServer(t, 8, cfg)
	resp, err := http.Get("http://" + s.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug on: pprof index status %d", resp.StatusCode)
	}

	s2, _, _ := testServer(t, 8, DefaultConfig())
	resp2, err := http.Get("http://" + s2.Addr() + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusOK {
		t.Fatalf("debug off: pprof index reachable (status %d)", resp2.StatusCode)
	}
}
