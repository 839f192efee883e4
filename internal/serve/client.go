package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Client is a minimal JSON client for a ragserve endpoint, shared by the
// ragload generator, the router's shard fan-out and the serving tests.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient targets baseURL ("http://host:port"). A nil httpClient gets
// PooledHTTPClient(30 * time.Second).
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = PooledHTTPClient(30 * time.Second)
	}
	return &Client{base: baseURL, hc: httpClient}
}

// PooledHTTPClient returns an http.Client over a connection pool sized for
// load generation and fan-out, with a client-level timeout; 0 sets none,
// leaving each request's context as its only bound.
func PooledHTTPClient(timeout time.Duration) *http.Client {
	tr := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}
	return &http.Client{Timeout: timeout, Transport: tr}
}

// StatusError is a non-200 reply, carried as a typed error so callers
// (the router's retry classifier) can tell a 5xx worth retrying from a
// 4xx that is the caller's own fault.
type StatusError struct {
	Path   string
	Status int
	Msg    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: %s: status %d: %s", e.Path, e.Status, e.Msg)
}

func (c *Client) post(path string, req, resp any) error {
	return c.Do(context.Background(), http.MethodPost, path, req, resp)
}

// maxResponseBytes bounds how much of one reply the client will read — a
// runaway or hostile endpoint cannot make a caller buffer without limit.
const maxResponseBytes = 64 << 20

// Do is the transport core, shared with the router's client (same wire
// conventions, different reply types): it sends req as a JSON body (none
// when req is nil) and decodes the 200 reply into resp. The request carries
// ctx, so a caller's deadline or cancellation propagates into the
// connection — the router's per-shard deadlines reach the backend end to
// end instead of stopping at the client library.
func (c *Client) Do(ctx context.Context, method, path string, req, resp any) error {
	r, err := c.roundTrip(ctx, method, path, req)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	// Read to EOF (within the cap) rather than stream-decode: a body closed
	// before its EOF costs the pooled connection.
	data, err := io.ReadAll(io.LimitReader(r.Body, maxResponseBytes))
	if err != nil {
		return err
	}
	return json.Unmarshal(data, resp)
}

// roundTrip sends one request and returns the reply only if it is a 200;
// any other status becomes a *StatusError carrying the first 4 KiB of the
// body, so no caller can mistake an error page for a payload.
func (c *Client) roundTrip(ctx context.Context, method, path string, req any) (*http.Response, error) {
	var body io.Reader
	if req != nil {
		data, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(data)
	}
	hreq, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if req != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	// Propagate the caller's trace id so the server adopts it instead of
	// minting one — one id names the request across tiers.
	if tr := obs.FromContext(ctx); tr != nil {
		hreq.Header.Set(obs.TraceHeader, tr.ID())
	}
	r, err := c.hc.Do(hreq)
	if err != nil {
		return nil, err
	}
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 4<<10)) // best effort: the status is the error
		r.Body.Close()
		return nil, &StatusError{Path: path, Status: r.StatusCode, Msg: string(bytes.TrimSpace(msg))}
	}
	return r, nil
}

// SearchRoute issues one /v1/<route>/search request ("chunks",
// "traces/detailed", …). exclude is the trace routes' question
// self-exclusion id ("" for none).
func (c *Client) SearchRoute(route, query string, k int, exclude string) (SearchResponse, error) {
	var out SearchResponse
	err := c.post("/v1/"+route+"/search", SearchRequest{Query: query, K: k, Exclude: exclude}, &out)
	return out, err
}

// AddRoute inserts a batch of chunks on a live-mounted route.
func (c *Client) AddRoute(route string, chunks []AddChunk) (AddResponse, error) {
	var out AddResponse
	err := c.post("/v1/"+route+"/add", AddRequest{Chunks: chunks}, &out)
	return out, err
}

// CompactRoute asks the server to synchronously drain a live route's
// memtable into its base index.
func (c *Client) CompactRoute(route string) (CompactResponse, error) {
	var out CompactResponse
	err := c.post("/admin/"+route+"/compact", struct{}{}, &out)
	return out, err
}

// SwapRoute asks the server to hot-swap one route's index from a VSF
// file; the other routes keep their epochs and warm caches.
func (c *Client) SwapRoute(route, path string) (SwapResponse, error) {
	var out SwapResponse
	err := c.post("/admin/"+route+"/swap", SwapRequest{Path: path}, &out)
	return out, err
}

// SearchRouteReqCtx issues one /v1/<route>/search request from a full
// request body under a caller context — the way to set opt-in fields like
// Timing that the positional helpers don't carry.
func (c *Client) SearchRouteReqCtx(ctx context.Context, route string, req SearchRequest) (SearchResponse, error) {
	var out SearchResponse
	err := c.Do(ctx, http.MethodPost, "/v1/"+route+"/search", req, &out)
	return out, err
}

// SearchRouteBatchReqCtx issues one /v1/<route>/search/batch request from
// a full request body under a caller context — the router's scatter path,
// which always asks shards for timing so it can graft their spans onto the
// fan-out trace.
func (c *Client) SearchRouteBatchReqCtx(ctx context.Context, route string, req BatchSearchRequest) (BatchSearchResponse, error) {
	var out BatchSearchResponse
	err := c.Do(ctx, http.MethodPost, "/v1/"+route+"/search/batch", req, &out)
	return out, err
}

// SearchRouteBatchCtx issues one /v1/<route>/search/batch request under a
// caller context. exclude is nil or one entry per query.
func (c *Client) SearchRouteBatchCtx(ctx context.Context, route string, queries []string, k int, exclude []string) (BatchSearchResponse, error) {
	var out BatchSearchResponse
	err := c.Do(ctx, http.MethodPost, "/v1/"+route+"/search/batch", BatchSearchRequest{Queries: queries, K: k, Exclude: exclude}, &out)
	return out, err
}

// HealthzCtx fetches the health summary under a caller context (the
// router's health prober runs it on a short deadline).
func (c *Client) HealthzCtx(ctx context.Context) (Healthz, error) {
	var out Healthz
	err := c.Do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// MetricsCtx fetches the /metrics text exposition under a caller
// context, so a scrape against a wedged server can be abandoned.
func (c *Client) MetricsCtx(ctx context.Context) (string, error) {
	r, err := c.roundTrip(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	defer r.Body.Close()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxResponseBytes))
	return string(body), err
}
