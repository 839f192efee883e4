// Package router is the fault-tolerant shard-scatter/gather tier in front
// of a fleet of ragserve backends: the corpus is partitioned across N
// shards (corpusgen-style modulo split), and the router serves the same
// routes as one backend would, with the exact global top-k — the scan.go
// segment-merge discipline lifted across the network.
//
// The router is a serve.Server whose routes are mounted over a remote
// store: each route's store sends every micro-batch to all shards as one
// batch RPC in parallel and merges the replies with MergeTopK. Coalescing,
// the handlers, the response schema, stage histograms, slowlog and
// /metrics are serve's, under the router.<route>. namespace. The routes
// keep no query cache: the router cannot see a shard's index epoch, so a
// cached top-k could outlive a shard's hot swap.
//
// What the router adds is the robustness layer wrapped around every shard
// call:
//
//   - a per-shard deadline, context-propagated end to end (router attempt
//     ctx → HTTP request → backend handler → backend coalescer);
//   - one retry after a 5 ms backoff (internal/retry's schedule), on 5xx
//     and transport errors only, so a stalled shard holds a batch for at
//     most two ShardTimeouts;
//   - a per-shard circuit breaker (trips after 3 consecutive failures,
//     cools down for 500 ms, then the background health prober, polling
//     every 500 ms, runs the one half-open probe);
//   - graceful degradation: when a shard is down, tripped or timing out,
//     clients get the exact merged top-k over the surviving shards with
//     degraded:true and shards_ok/shards_total on the wire — never a 5xx
//     while at least one shard answers;
//   - a /healthz of its own, reporting every shard's breaker and probe.
//
// The retry, breaker and probe settings are package constants, not
// configuration: no deployment has needed other values.
package router

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/httpkit"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rag"
	"repro/internal/retry"
	"repro/internal/serve"
)

// Config parameterises a Router. Request depth and batch limits and the
// slowlog size are serve's constants; the metrics registry is the one its
// serve.Server makes.
type Config struct {
	// Shards are the backend base URLs ("http://host:port"), one per
	// corpus partition. Order defines the shard names (shard0, shard1, …).
	Shards []string
	// Routes are the route names the router serves; every shard must
	// mount all of them (default: just "chunks").
	Routes []string
	// MaxBatch caps the coalesced micro-batch scattered per shard call
	// (default 32); MaxDelay caps the admission window, which is one
	// smoothed scatter/gather service time when that is shorter (default
	// 1ms; see internal/batch). A route's current window is the
	// router.<route>.coalesce_window_us gauge on /metrics.
	MaxBatch int
	MaxDelay time.Duration
	// ShardTimeout is the per-attempt deadline of one shard call
	// (default 2s). It propagates to the backend as the request context.
	ShardTimeout time.Duration
	// Debug mounts net/http/pprof under /debug/pprof/ (opt-in).
	Debug bool
}

func (c *Config) fill() {
	if len(c.Routes) == 0 {
		c.Routes = []string{serve.RouteChunks}
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Second
	}
}

const (
	// shardRetries is how often a failed shard call is re-attempted, on
	// 5xx and transport errors only (retryableError); shardBackoff is the
	// delay before the retry (internal/retry's schedule).
	shardRetries = 1
	shardBackoff = 5 * time.Millisecond
	// probeInterval is the health prober's period. The prober polls every
	// shard's /healthz and is what closes a tripped breaker again once the
	// shard reports "ok".
	probeInterval = 500 * time.Millisecond
)

// errAllShardsFailed is the only condition the router answers with a 5xx:
// not one shard produced results for the batch.
var errAllShardsFailed = errors.New("router: all shards failed")

// errShardTripped marks a call skipped because the shard's breaker is
// open — not an attempt, so it neither retries nor re-records a failure.
var errShardTripped = errors.New("router: shard breaker open")

// shard is one backend and its failure-handling state.
type shard struct {
	name   string
	url    string
	client *serve.Client
	br     *breaker

	probe   atomic.Value // string: ok | degraded | unreachable | unknown
	lastErr atomic.Value // lastError

	mRequests, mFailures, mRetries, mRejects *metrics.Counter
	gState, gTrips                           *metrics.Gauge
	hLatency                                 *metrics.Histogram
}

// lastError is a shard's most recent failure as /healthz reports it:
// bounded text plus when it happened, so an operator can tell a fresh
// outage from one the breaker recovered from minutes ago.
type lastError struct {
	msg string
	at  time.Time
}

// maxLastErrLen bounds the error text retained per shard — wrapped
// transport errors repeat the full URL per attempt and would otherwise
// bloat every /healthz reply.
const maxLastErrLen = 200

// setLastErr records a failure, truncating on a rune boundary.
func (sh *shard) setLastErr(err error) {
	msg := err.Error()
	if len(msg) > maxLastErrLen {
		cut := maxLastErrLen
		for cut > 0 && !utf8.RuneStart(msg[cut]) {
			cut--
		}
		msg = msg[:cut] + "…"
	}
	sh.lastErr.Store(lastError{msg: msg, at: time.Now()})
}

// Router is the scatter/gather front-end over a static shard map.
type Router struct {
	cfg    Config
	srv    *serve.Server
	shards []*shard
	// hc is every shard client's HTTP client: pooled, with no client-level
	// timeout, so ShardTimeout on each attempt's context is the only bound.
	hc *http.Client

	ctx        context.Context
	cancel     context.CancelFunc
	wg         sync.WaitGroup
	proberOnce sync.Once

	httpSrv *http.Server
	addr    string
}

// MetricPrefix returns a route's metrics namespace ("router.<name>." with
// path separators mapped to dots): the router's serve tier registers every
// per-route counter, gauge and histogram under it.
func MetricPrefix(routeName string) string {
	return "router." + strings.ReplaceAll(routeName, "/", ".") + "."
}

// ShardMetricPrefix returns a shard's metrics namespace
// ("router.shard.<name>.").
func ShardMetricPrefix(shardName string) string {
	return "router.shard." + shardName + "."
}

// New builds a router over cfg.Shards. It does not contact the shards;
// the health prober starts with Start (or Handler) and the breakers start
// closed.
func New(cfg Config) (*Router, error) {
	cfg.fill()
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: no shards configured")
	}
	// CacheCap stays 0: the router cannot see shard epochs (see the
	// package comment).
	srv := serve.NewTier("router", serve.Config{MaxBatch: cfg.MaxBatch, MaxDelay: cfg.MaxDelay, Debug: cfg.Debug})
	reg := srv.Registry()
	ctx, cancel := context.WithCancel(context.Background())
	r := &Router{cfg: cfg, srv: srv, hc: serve.PooledHTTPClient(0), ctx: ctx, cancel: cancel}
	for i, url := range cfg.Shards {
		name := fmt.Sprintf("shard%d", i)
		p := ShardMetricPrefix(name)
		sh := &shard{
			name:      name,
			url:       url,
			client:    serve.NewClient(url, r.hc),
			br:        newBreaker(),
			mRequests: reg.Counter(p + "requests"),
			mFailures: reg.Counter(p + "failures"),
			mRetries:  reg.Counter(p + "retries"),
			mRejects:  reg.Counter(p + "breaker.rejects"),
			gState:    reg.Gauge(p + "breaker.state"),
			gTrips:    reg.Gauge(p + "breaker.trips"),
			hLatency:  reg.Histogram(p + "latency"),
		}
		sh.probe.Store("unknown")
		r.shards = append(r.shards, sh)
	}
	for _, name := range cfg.Routes {
		if err := srv.Mount(name, shardSet{r: r, route: name}); err != nil {
			cancel()
			return nil, err
		}
	}
	return r, nil
}

// Registry exposes the router's metrics registry.
func (r *Router) Registry() *metrics.Registry { return r.srv.Registry() }

// Routes lists the served route names, sorted.
func (r *Router) Routes() []string { return r.srv.Routes() }

// Shards reports the shard map (name → URL) in shard order.
func (r *Router) Shards() []string {
	out := make([]string, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.url
	}
	return out
}

// shardSet is one route over the whole fleet, mounted as that route's
// serve.Store. It has no swap half: a shard swaps its own index.
type shardSet struct {
	r     *Router
	route string
}

// Len is 0: the router does not know the shards' sizes (each shard's
// /healthz reports its own).
func (s shardSet) Len() int { return 0 }

// RetrieveBatch sends the batch to every shard as one batch RPC, all in
// parallel, then merges each query's per-shard lists into the exact
// top-k over the shards that answered. The trace in ctx (the batch
// leader's) names every shard call, and the shards' span timelines are
// grafted onto it as shardN.<stage>, anchored at the instant the scatter
// began — clock skew between router and shard cannot reorder the merged
// timeline. Only when no shard answers is the batch an error.
func (s shardSet) RetrieveBatch(ctx context.Context, queries []string, k int, exclude []string) (rag.Batch, error) {
	lead := obs.FromContext(ctx)
	replies := make([]*serve.BatchSearchResponse, len(s.r.shards))
	start := time.Now()
	var wg sync.WaitGroup
	for i, sh := range s.r.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := s.r.callShard(sh, s.route, queries, k, exclude, lead); err == nil {
				replies[i] = &resp
			}
		}()
	}
	wg.Wait()
	stages := []rag.Stage{{Name: "scatter", Dur: time.Since(start)}, {Name: "merge"}}
	ok := 0
	for i, resp := range replies {
		if resp != nil {
			ok++
			if resp.Timing != nil {
				lead.AttachAt(s.r.shards[i].name+".", start, resp.Timing.Spans)
			}
		}
	}
	if ok == 0 {
		return rag.Batch{Stages: stages[:1]}, errAllShardsFailed
	}
	mergeStart := time.Now()
	hits := make([][]rag.Hit, len(queries))
	lists := make([][]serve.SearchResult, 0, ok)
	for qi := range queries {
		lists = lists[:0]
		for _, resp := range replies {
			if resp != nil {
				lists = append(lists, resp.Results[qi])
			}
		}
		hits[qi] = MergeTopK(lists, k)
	}
	stages[1].Dur = time.Since(mergeStart)
	return rag.Batch{Hits: hits, Stages: stages, Parts: rag.Parts{OK: ok, Total: len(replies)}}, nil
}

// callShard runs one shard call under the robustness stack: breaker
// admission, per-attempt deadline, bounded retry on transient failures.
// The shard is always asked for timing — a few hundred extra bytes per
// micro-batch buys the cross-tier span timeline unconditionally, so the
// slowlog never misses the shard-side breakdown of a slow fan-out.
func (r *Router) callShard(sh *shard, routeName string, queries []string, k int, excludes []string, tr *obs.Trace) (serve.BatchSearchResponse, error) {
	if !sh.br.Allow() {
		sh.mRejects.Inc()
		return serve.BatchSearchResponse{}, errShardTripped
	}
	sh.mRequests.Inc()
	start := time.Now()
	var resp serve.BatchSearchResponse
	attempts := 0
	err := retry.Policy{MaxRetries: shardRetries, BaseBackoff: shardBackoff}.Do(obs.WithTrace(r.ctx, tr), func(ctx context.Context) error {
		if attempts > 0 {
			sh.mRetries.Inc()
		}
		attempts++
		actx, cancel := context.WithTimeout(ctx, r.cfg.ShardTimeout)
		defer cancel()
		var e error
		resp, e = sh.client.SearchRouteBatchReqCtx(actx, routeName,
			serve.BatchSearchRequest{Queries: queries, K: k, Exclude: excludes, Timing: true})
		return e
	}, retryableError)
	sh.hLatency.Observe(time.Since(start))
	if err == nil && len(resp.Results) != len(queries) {
		err = fmt.Errorf("router: shard %s returned %d result sets for %d queries", sh.name, len(resp.Results), len(queries))
	}
	if err != nil {
		sh.mFailures.Inc()
		sh.setLastErr(err)
		sh.br.Record(false)
		r.publishShardGauges(sh)
		return serve.BatchSearchResponse{}, err
	}
	sh.br.Record(true)
	r.publishShardGauges(sh)
	return resp, nil
}

func (r *Router) publishShardGauges(sh *shard) {
	sh.gState.Set(int64(sh.br.State()))
	sh.gTrips.Set(sh.br.Trips())
}

// retryableError classifies a shard error: 5xx and transport failures
// (connection refused, per-attempt deadline) are transient and worth the
// backoff; a 4xx is the router's own malformed request, and a cancelled
// parent context means the router is shutting down — neither retries.
func retryableError(err error) bool {
	var se *serve.StatusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	return !errors.Is(err, context.Canceled)
}

// probeLoop polls every shard's /healthz each probeInterval. It is the
// recovery path of the breaker state machine: when a breaker has cooled
// into half-open, the probe is the single admitted trial, so client
// traffic never pays the latency of poking a possibly-still-dead shard —
// degraded responses continue until a probe proves the shard back.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(probeInterval)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
		}
		for _, sh := range r.shards {
			r.probeShard(sh)
		}
	}
}

// probeShard fetches one shard's /healthz and, when the breaker is open
// past its cooldown, uses the outcome as the half-open probe. A shard
// reporting "degraded" (a route with zero vectors) counts as a failed
// probe: it is alive but cannot serve its slice of the corpus.
func (r *Router) probeShard(sh *shard) {
	ctx, cancel := context.WithTimeout(r.ctx, probeInterval)
	hz, err := sh.client.HealthzCtx(ctx)
	cancel()
	status := "unreachable"
	if err == nil {
		status = hz.Status
	}
	sh.probe.Store(status)
	if err != nil {
		sh.setLastErr(err)
	}
	if sh.br.AllowProbe() {
		sh.br.Record(err == nil && status == "ok")
	}
	r.publishShardGauges(sh)
}

// Handler returns the HTTP API: serve's handler set over the shard
// routes (POST /v1/<name>/search and /search/batch per route, /metrics,
// /debug/slowlog/<name>, and /debug/pprof/ with Config.Debug), with the
// router's own GET /healthz mounted over serve's — per-shard breaker
// state, probe status and trip counts. Calling Handler (or Start) also
// starts the background health prober.
func (r *Router) Handler() http.Handler {
	r.startProber()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", r.handleHealthz)
	mux.Handle("/", r.srv.Handler())
	return mux
}

func (r *Router) startProber() {
	// Guarded per router, not globally: Handler may be called once for
	// Start and once directly in tests.
	r.proberOnce.Do(func() {
		r.wg.Add(1)
		go r.probeLoop()
	})
}

// Start binds addr and serves in the background until Shutdown.
func (r *Router) Start(addr string) error {
	var err error
	r.httpSrv, r.addr, err = httpkit.Start(addr, r.Handler)
	return err
}

// Addr returns the bound address (after Start).
func (r *Router) Addr() string { return r.addr }

// Shutdown drains gracefully: stop accepting, finish in-flight requests
// within ctx, then stop the prober, the coalescers and any pending
// shard-call backoffs (the lifecycle context aborts their sleeps).
func (r *Router) Shutdown(ctx context.Context) error {
	err := httpkit.Shutdown(ctx, r.httpSrv)
	r.cancel()
	r.srv.Shutdown(ctx) //nolint:errcheck // never listened: this only stops its coalescers
	r.wg.Wait()
	return err
}

// Close is Shutdown with a bounded drain window.
func (r *Router) Close() error { return httpkit.Close(r.Shutdown) }

// Wire types.

// ShardHealth is one shard's entry in the router's /healthz reply.
type ShardHealth struct {
	URL string `json:"url"`
	// Breaker is the circuit state: closed | open | half-open.
	Breaker string `json:"breaker"`
	// Probe is the last /healthz poll outcome: ok | degraded |
	// unreachable | unknown (not yet probed).
	Probe            string `json:"probe"`
	ConsecutiveFails int    `json:"consecutive_fails,omitempty"`
	Trips            int64  `json:"trips"`
	// LastError is the shard's most recent failure, truncated to a bounded
	// length; LastErrorAt is when it happened (RFC 3339, UTC).
	LastError   string `json:"last_error,omitempty"`
	LastErrorAt string `json:"last_error_at,omitempty"`
}

// Healthz is the router's /healthz reply.
type Healthz struct {
	// Status is "ok" when every breaker is closed, "degraded" otherwise.
	Status      string                 `json:"status"`
	ShardsOK    int                    `json:"shards_ok"`
	ShardsTotal int                    `json:"shards_total"`
	Routes      []string               `json:"routes"`
	Shards      map[string]ShardHealth `json:"shards"`
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	hz := Healthz{
		Status:      "ok",
		ShardsTotal: len(r.shards),
		Routes:      r.Routes(),
		Shards:      make(map[string]ShardHealth, len(r.shards)),
	}
	for _, sh := range r.shards {
		state := sh.br.State()
		if state == BreakerClosed {
			hz.ShardsOK++
		} else {
			hz.Status = "degraded"
		}
		entry := ShardHealth{
			URL:              sh.url,
			Breaker:          state.String(),
			Probe:            sh.probe.Load().(string),
			ConsecutiveFails: sh.br.ConsecutiveFails(),
			Trips:            sh.br.Trips(),
		}
		if le, ok := sh.lastErr.Load().(lastError); ok {
			entry.LastError = le.msg
			entry.LastErrorAt = le.at.UTC().Format(time.RFC3339)
		}
		hz.Shards[sh.name] = entry
	}
	httpkit.WriteJSON(w, hz)
}
