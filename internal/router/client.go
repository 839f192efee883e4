package router

import (
	"context"
	"net/http"

	"repro/internal/serve"
)

// Client is a typed JSON client for the router API. The router speaks the
// backends' wire schema (the degradation contract included), so Client is
// a serve.Client whose HealthzCtx decodes the router's per-shard report.
type Client struct {
	*serve.Client
}

// NewClient returns a client for the router at baseURL; a nil httpClient
// gets the serve-client default (30s timeout, pooled transport).
func NewClient(baseURL string, httpClient *http.Client) *Client {
	return &Client{serve.NewClient(baseURL, httpClient)}
}

// HealthzCtx fetches the router health report under ctx.
func (c *Client) HealthzCtx(ctx context.Context) (Healthz, error) {
	var hz Healthz
	err := c.Do(ctx, http.MethodGet, "/healthz", nil, &hz)
	return hz, err
}
