package serve

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/retry"
	"repro/internal/rng"
	"repro/internal/stats"
)

// LoadConfig parameterises the load harness.
type LoadConfig struct {
	// Concurrency is the number of closed-loop workers, or the in-flight
	// cap for the open loop (default 16).
	Concurrency int
	// Requests is the total number of requests to issue (default 1000).
	Requests int
	// RatePerSec > 0 switches to an open loop: requests are admitted at a
	// fixed rate regardless of completions (latency under offered load),
	// instead of the default closed loop where each worker waits for its
	// previous request (latency under concurrency).
	RatePerSec float64
	// K is the retrieval depth sent with every request.
	K int
	// Queries are the request pool; which entry a request draws is
	// governed by Dist. Repetition (from a small pool, or a skewed Dist)
	// is what exercises the server's query cache.
	Queries []string
	// Dist selects the query-index distribution over Queries: "" or
	// "uniform" cycles round-robin (every entry equally often, the
	// historical behaviour); "zipf" samples rank r with probability
	// ∝ 1/(r+1)^ZipfS — the heavy-tailed key popularity real retrieval
	// traffic shows, and the workload the cache eviction-policy sweep
	// needs. Earlier Queries entries are the hot head.
	Dist string
	// ZipfS is the zipf exponent when Dist == "zipf" (default 1.1).
	ZipfS float64
	// Seed drives the zipf sampler; the drawn sequence is deterministic
	// per (Seed, Requests, len(Queries), ZipfS).
	Seed uint64
	// Ctx, when non-nil, aborts the run: cancelling it stops further
	// requests from being issued and wakes the open loop's pacing sleep
	// immediately (via retry.Sleep), so an interrupted load run does not
	// ride out its schedule. In-flight requests still complete and the
	// report covers exactly the requests that were issued.
	Ctx context.Context
}

func (c *LoadConfig) fill() {
	if c.Concurrency <= 0 {
		c.Concurrency = 16
	}
	if c.Requests <= 0 {
		c.Requests = 1000
	}
	if c.K <= 0 {
		c.K = 5
	}
	if c.Dist == "" {
		c.Dist = "uniform"
	}
	if c.ZipfS <= 0 {
		c.ZipfS = 1.1
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
}

// queryOrder precomputes the query index drawn by each request, so the
// concurrent issue loop stays deterministic regardless of scheduling.
func (c *LoadConfig) queryOrder() []int {
	idx := make([]int, c.Requests)
	switch c.Dist {
	case "uniform":
		for i := range idx {
			idx[i] = i % len(c.Queries)
		}
	case "zipf":
		z := rng.NewZipf(len(c.Queries), c.ZipfS)
		r := rng.New(c.Seed)
		for i := range idx {
			idx[i] = z.Sample(r)
		}
	default:
		panic(fmt.Sprintf("serve: unknown load distribution %q", c.Dist))
	}
	return idx
}

// LoadReport is the harness's latency/throughput summary. Latencies are
// client-observed (queueing + batching + search + transport).
type LoadReport struct {
	Mode        string  `json:"mode"`           // "closed" or "open"
	Dist        string  `json:"dist,omitempty"` // query-key distribution: "uniform" or "zipf"
	Concurrency int     `json:"concurrency"`
	Requests    int64   `json:"requests"`
	Failures    int64   `json:"failures"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	QPS         float64 `json:"qps"`
	MeanMS      float64 `json:"latency_mean_ms"`
	P50MS       float64 `json:"latency_p50_ms"`
	P95MS       float64 `json:"latency_p95_ms"`
	P99MS       float64 `json:"latency_p99_ms"`
	MaxMS       float64 `json:"latency_max_ms"`
}

// String renders the report as the table ragload prints.
func (r *LoadReport) String() string {
	var b strings.Builder
	dist := ""
	if r.Dist != "" && r.Dist != "uniform" {
		dist = " dist=" + r.Dist
	}
	fmt.Fprintf(&b, "mode=%s%s concurrency=%d requests=%d failures=%d\n",
		r.Mode, dist, r.Concurrency, r.Requests, r.Failures)
	fmt.Fprintf(&b, "elapsed %.1fms   throughput %.0f qps\n", r.ElapsedMS, r.QPS)
	fmt.Fprintf(&b, "latency mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms max=%.3fms",
		r.MeanMS, r.P50MS, r.P95MS, r.P99MS, r.MaxMS)
	return b.String()
}

// MixedReport is the result of a mixed-route load run: the aggregate plus
// one report per route, all measured over the same wall-clock window (so
// per-route QPS values sum to the total).
type MixedReport struct {
	Total    *LoadReport            `json:"total"`
	PerRoute map[string]*LoadReport `json:"per_route"`
}

// RunLoad drives do — one retrieval request; typically Client.Search or an
// in-process Server.Search closure — according to cfg and reports
// client-side latency quantiles and throughput.
func RunLoad(cfg LoadConfig, do func(query string, k int) error) *LoadReport {
	return RunLoadMixed(cfg, nil, func(_, q string, k int) error { return do(q, k) }).Total
}

// RunLoadMixed drives do with requests fanned round-robin across routes
// (request i goes to routes[i%len(routes)]), the multi-store serving
// workload. A nil/empty routes slice degenerates to a single unnamed
// route and an empty PerRoute map.
func RunLoadMixed(cfg LoadConfig, routes []string, do func(route, query string, k int) error) *MixedReport {
	cfg.fill()
	if len(cfg.Queries) == 0 {
		cfg.Queries = []string{"empty query set"}
	}
	perRoute := routes
	if len(routes) == 0 {
		routes = []string{""}
	}
	qidx := cfg.queryOrder()
	lat := make([]time.Duration, cfg.Requests)
	failed := make([]bool, cfg.Requests)
	issue := func(i int) {
		q := cfg.Queries[qidx[i]]
		start := time.Now()
		err := do(routes[i%len(routes)], q, cfg.K)
		lat[i] = time.Since(start)
		failed[i] = err != nil
	}

	mode := "closed"
	issued := cfg.Requests
	start := time.Now()
	if cfg.RatePerSec > 0 {
		mode = "open"
		interval := time.Duration(float64(time.Second) / cfg.RatePerSec)
		var wg sync.WaitGroup
		sem := make(chan struct{}, cfg.Concurrency)
		next := time.Now()
		for i := 0; i < cfg.Requests; i++ {
			// The pacing sleep goes through retry.Sleep so cancelling
			// cfg.Ctx aborts the schedule immediately instead of riding
			// out the inter-arrival gap (the first real nosleep finding).
			if d := time.Until(next); d > 0 {
				if retry.Sleep(cfg.Ctx, d) != nil {
					issued = i
					break
				}
			} else if cfg.Ctx.Err() != nil {
				issued = i
				break
			}
			next = next.Add(interval)
			sem <- struct{}{}
			wg.Add(1)
			go func(i int) {
				defer func() { <-sem; wg.Done() }()
				issue(i)
			}(i)
		}
		wg.Wait()
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					if cfg.Ctx.Err() != nil {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= cfg.Requests {
						return
					}
					issue(i)
				}
			}()
		}
		wg.Wait()
		// Workers claim indexes in order and bail before claiming once
		// the ctx is cancelled, so everything below the counter ran.
		if n := int(next.Load()); n < issued {
			issued = n
		}
	}
	elapsed := time.Since(start)

	lat, failed = lat[:issued], failed[:issued]
	all := make([]int, issued)
	for i := range all {
		all[i] = i
	}
	rep := &MixedReport{
		Total:    summarize(mode, cfg.Dist, cfg.Concurrency, all, lat, failed, elapsed),
		PerRoute: make(map[string]*LoadReport, len(perRoute)),
	}
	for ri, route := range perRoute {
		var idx []int
		for i := ri; i < issued; i += len(routes) {
			idx = append(idx, i)
		}
		rep.PerRoute[route] = summarize(mode, cfg.Dist, cfg.Concurrency, idx, lat, failed, elapsed)
	}
	return rep
}

// summarize reduces the latency samples at idx — everything for the total
// report, one route's stripe for a per-route one — against the run's
// shared elapsed window.
func summarize(mode, dist string, concurrency int, idx []int, lat []time.Duration, failed []bool, elapsed time.Duration) *LoadReport {
	sorted := make([]time.Duration, len(idx))
	var failures int64
	var sum time.Duration
	for i, j := range idx {
		sorted[i] = lat[j]
		sum += lat[j]
		if failed[j] {
			failures++
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	q := func(p float64) float64 { return ms(stats.Quantile(sorted, p)) }
	rep := &LoadReport{
		Mode:        mode,
		Dist:        dist,
		Concurrency: concurrency,
		Requests:    int64(len(idx)),
		Failures:    failures,
		ElapsedMS:   ms(elapsed),
		MeanMS:      ms(sum / time.Duration(max(1, len(sorted)))),
		P50MS:       q(0.50),
		P95MS:       q(0.95),
		P99MS:       q(0.99),
	}
	if len(sorted) > 0 {
		rep.MaxMS = ms(sorted[len(sorted)-1])
	}
	if elapsed > 0 {
		rep.QPS = float64(len(idx)) / elapsed.Seconds()
	}
	return rep
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
