package router

import (
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/serve"
)

func getSlowlog(t *testing.T, baseURL, route string) obs.SlowLogPage {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/slowlog/" + route)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slowlog %s: status %d", baseURL, resp.StatusCode)
	}
	var page obs.SlowLogPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	return page
}

func findRecord(page obs.SlowLogPage, traceID string) *obs.TraceRecord {
	for i := range page.Slowest {
		if page.Slowest[i].TraceID == traceID {
			return &page.Slowest[i]
		}
	}
	return nil
}

// TestTracePropagationEndToEnd is the acceptance check for the tracing
// tentpole: one trace id, supplied by the client, names the request in the
// router's merged response, in the router's slowlog, and in every shard's
// slowlog — and the merged timeline carries both router stages and
// shardN.-prefixed remote spans.
func TestTracePropagationEndToEnd(t *testing.T) {
	f := testFleet(t, 3, 48)
	c, url := testRouter(t, f)

	const traceID = "e2e-router-trace-7"
	ctx := obs.WithTrace(context.Background(), obs.NewTrace(traceID))
	resp, err := c.SearchRouteReqCtx(ctx, serve.RouteChunks, serve.SearchRequest{
		Query: f.corpus[5].Text, K: 3, Timing: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || resp.Results[0].ID != f.corpus[5].ID {
		t.Fatalf("unexpected response %+v", resp)
	}
	if resp.Timing == nil {
		t.Fatal("timing requested but response.timing is nil")
	}
	if resp.Timing.TraceID != traceID {
		t.Fatalf("router did not adopt the client trace id: got %q", resp.Timing.TraceID)
	}

	names := make(map[string]bool)
	shardSpans := 0
	for _, sp := range resp.Timing.Spans {
		names[sp.Name] = true
		if strings.HasPrefix(sp.Name, "shard") && strings.Contains(sp.Name, ".") {
			shardSpans++
		}
	}
	for _, want := range []string{"queue", "scatter", "merge"} {
		if !names[want] {
			t.Fatalf("merged timeline lacks router %q span: %+v", want, resp.Timing.Spans)
		}
	}
	if shardSpans == 0 {
		t.Fatalf("merged timeline has no shardN.-prefixed remote spans: %+v", resp.Timing.Spans)
	}

	// Router slowlog retains the same id with a non-empty timeline.
	rpage := getSlowlog(t, url, serve.RouteChunks)
	rrec := findRecord(rpage, traceID)
	if rrec == nil {
		t.Fatalf("trace %q not in router slowlog: %+v", traceID, rpage.Slowest)
	}
	if len(rrec.Spans) == 0 {
		t.Fatalf("router slowlog record has empty timeline: %+v", rrec)
	}

	// Every shard adopted the propagated id: the same trace id appears in
	// each shard's own slowlog with its local (unprefixed) span timeline.
	for si, url := range f.urls {
		spage := getSlowlog(t, url, serve.RouteChunks)
		srec := findRecord(spage, traceID)
		if srec == nil {
			t.Fatalf("trace %q not in shard %d slowlog: %+v", traceID, si, spage.Slowest)
		}
		if len(srec.Spans) == 0 {
			t.Fatalf("shard %d slowlog record has empty timeline: %+v", si, srec)
		}
	}
}

// TestRouterTimingOptIn: no timing flag, no timing payload — the opt-in
// contract holds through the router tier too.
func TestRouterTimingOptIn(t *testing.T) {
	f := testFleet(t, 2, 32)
	c, _ := testRouter(t, f)
	resp, err := c.SearchRouteReqCtx(t.Context(), serve.RouteChunks, serve.SearchRequest{Query: f.corpus[3].Text, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Timing != nil {
		t.Fatalf("timing not requested but present: %+v", resp.Timing)
	}
}
