// Command ragload is the load generator for a running ragserve: closed-
// or open-loop search traffic over serve.RunLoadMixed, optionally fanned
// round-robin across several routes (-routes) and drawn from a uniform or
// zipfian key popularity (-dist). It prints the latency/throughput report
// (per route when there are several) and the server's /metrics afterwards.
// Performance numbers for the repository come from ragbench
// (`bash benchmarks/run.sh`, see benchmarks/README.md); ragload is for
// poking at a live server.
//
// Usage:
//
//	ragload -addr http://127.0.0.1:8080 -n 5000 -c 32      # closed loop
//	ragload -addr ... -rate 500                            # open loop at 500 qps
//	ragload -addr ... -routes chunks,traces/detailed       # mixed-route load
//	ragload -addr ... -dist zipf -queries 4096             # heavy-tailed keys
//	ragload -addr ... -json load.json                      # machine-readable report
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "target server base URL")
	n := flag.Int("n", 2000, "requests to issue")
	c := flag.Int("c", 32, "concurrent clients (closed loop) / in-flight cap (open loop)")
	rate := flag.Float64("rate", 0, "open-loop admission rate in qps (0 = closed loop)")
	k := flag.Int("k", 5, "retrieval depth")
	nq := flag.Int("queries", 0, "distinct query pool size (0 = one per request)")
	routes := flag.String("routes", "chunks", "comma-separated routes to fan requests across (e.g. chunks,traces/detailed)")
	dist := flag.String("dist", "uniform", "query-key distribution: uniform or zipf")
	zipfS := flag.Float64("zipf-s", 1.1, "zipf exponent for -dist zipf")
	jsonPath := flag.String("json", "", "write the machine-readable report here")
	flag.Parse()

	if *dist != "uniform" && *dist != "zipf" {
		log.Fatalf("-dist %q: want uniform or zipf", *dist)
	}
	// Interrupting a run cancels this ctx: pacing sleeps wake immediately
	// and the run exits with an error instead of riding out its schedule
	// or writing a truncated report.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, *addr, *routes, *n, *c, *nq, *k, *rate, *dist, *zipfS, *jsonPath); err != nil {
		log.Fatal(err)
	}
}

// queryPool derives load queries from chunk-like topic vocabulary. Each is
// distinct, so a pool larger than the cache defeats it and a small pool
// exercises it.
func queryPool(n int) []string {
	topics := []string{"galaxy formation", "neutrino oscillation", "stellar wind", "dark matter halo",
		"accretion disk", "gravitational lensing", "pulsar timing", "cosmic ray flux"}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s observation run %d with instrument channel %d", topics[i%len(topics)], i, i*13%97)
	}
	return out
}

func run(ctx context.Context, addr, routeList string, n, c, nq, k int, rate float64, dist string, zipfS float64, jsonPath string) error {
	client := serve.NewClient(addr, nil)
	if _, err := client.HealthzCtx(ctx); err != nil {
		return fmt.Errorf("server not healthy: %w", err)
	}
	if nq <= 0 {
		nq = n
	}
	var routes []string
	for _, r := range strings.Split(routeList, ",") {
		if r = strings.TrimSpace(r); r != "" {
			routes = append(routes, r)
		}
	}
	if len(routes) == 0 {
		return fmt.Errorf("-routes %q names no routes", routeList)
	}
	rep := serve.RunLoadMixed(serve.LoadConfig{
		Concurrency: c, Requests: n, RatePerSec: rate, K: k, Queries: queryPool(nq),
		Dist: dist, ZipfS: zipfS, Ctx: ctx,
	}, routes, func(route, q string, k int) error {
		_, err := client.SearchRoute(route, q, k, "")
		return err
	})
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("load run interrupted after %d requests: %w", rep.Total.Requests, err)
	}
	fmt.Println(rep.Total)
	if len(routes) > 1 {
		for _, route := range routes {
			fmt.Printf("\n%s:\n%s\n", route, rep.PerRoute[route])
		}
	}
	mtext, err := client.MetricsCtx(ctx)
	if err != nil {
		return err
	}
	fmt.Println("\nserver /metrics:")
	fmt.Print(mtext)
	if jsonPath == "" {
		return nil
	}
	data, err := json.MarshalIndent(map[string]any{"bench": "serve-remote", "load": rep}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(jsonPath, append(data, '\n'), 0o644)
}
