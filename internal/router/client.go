package router

import (
	"context"
	"net/http"

	"repro/internal/serve"
)

// Client is a typed JSON client for the router API, decoding the
// degradation contract (degraded, shards_ok/shards_total) alongside the
// results. It rides serve.Client's transport — the router speaks the
// backends' wire conventions (JSON bodies, X-Trace-Id propagation,
// *serve.StatusError for a non-200) and differs only in its reply types.
type Client struct {
	sc *serve.Client
}

// NewClient returns a client for the router at baseURL; a nil httpClient
// gets the serve-client default (30s timeout, pooled transport).
func NewClient(baseURL string, httpClient *http.Client) *Client {
	return &Client{sc: serve.NewClient(baseURL, httpClient)}
}

// BaseURL returns the router base URL the client targets.
func (c *Client) BaseURL() string { return c.sc.BaseURL() }

// SearchRouteCtx runs one query on the named route.
func (c *Client) SearchRouteCtx(ctx context.Context, route, query string, k int, exclude string) (SearchResponse, error) {
	return c.SearchRouteReqCtx(ctx, route, serve.SearchRequest{Query: query, K: k, Exclude: exclude})
}

// SearchRouteReqCtx runs one query on the named route from a full request
// body — the way to set opt-in fields like Timing that the positional
// helpers don't carry.
func (c *Client) SearchRouteReqCtx(ctx context.Context, route string, req serve.SearchRequest) (SearchResponse, error) {
	var resp SearchResponse
	err := c.sc.Do(ctx, http.MethodPost, "/v1/"+route+"/search", req, &resp)
	return resp, err
}

// SearchRouteBatchCtx runs an explicit batch on the named route.
func (c *Client) SearchRouteBatchCtx(ctx context.Context, route string, queries []string, k int, exclude []string) (BatchSearchResponse, error) {
	var resp BatchSearchResponse
	err := c.sc.Do(ctx, http.MethodPost, "/v1/"+route+"/search/batch", serve.BatchSearchRequest{Queries: queries, K: k, Exclude: exclude}, &resp)
	return resp, err
}

// HealthzCtx fetches the router health report under ctx.
func (c *Client) HealthzCtx(ctx context.Context) (Healthz, error) {
	var hz Healthz
	err := c.sc.Do(ctx, http.MethodGet, "/healthz", nil, &hz)
	return hz, err
}
