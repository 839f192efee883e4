package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestClientNon200IsStatusError: every client call turns a non-200 reply
// into a *StatusError carrying the status and a 4 KiB-capped body — never
// a nil error with the error page as the payload (what MetricsCtx used to
// return) and never an empty message (what HealthzCtx used to return).
func TestClientNon200IsStatusError(t *testing.T) {
	page := "shard draining: " + strings.Repeat("x", 8<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, page, http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	ctx := context.Background()

	for _, tc := range []struct {
		name, path string
		call       func(t *testing.T) error
	}{
		{"HealthzCtx", "/healthz", func(*testing.T) error { _, err := c.HealthzCtx(ctx); return err }},
		{"MetricsCtx", "/metrics", func(t *testing.T) error {
			text, err := c.MetricsCtx(ctx)
			if text != "" {
				t.Errorf("MetricsCtx returned %d bytes of the error page as metrics text", len(text))
			}
			return err
		}},
		{"SearchRouteReqCtx", "/v1/chunks/search", func(*testing.T) error {
			_, err := c.SearchRouteReqCtx(ctx, RouteChunks, SearchRequest{Query: "q", K: 1})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var se *StatusError
			if err := tc.call(t); !errors.As(err, &se) {
				t.Fatalf("err = %v, want *StatusError", err)
			}
			if se.Status != http.StatusServiceUnavailable || se.Path != tc.path {
				t.Fatalf("status error %+v", se)
			}
			if !strings.HasPrefix(se.Msg, "shard draining: ") || len(se.Msg) > 4<<10 {
				t.Fatalf("message of %d bytes, want the reply body capped at 4 KiB: %.40q", len(se.Msg), se.Msg)
			}
		})
	}
}
