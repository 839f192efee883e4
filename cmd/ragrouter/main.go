// Command ragrouter is the fault-tolerant scatter/gather front-end over a
// fleet of ragserve shards. It is ragserve's serving layer (the same
// search routes, reply schema, coalescer, /metrics and slowlog) with each
// route backed by the whole fleet instead of a local index: it fans each
// coalesced micro-batch out to every shard concurrently and merges the
// per-shard top-k into the exact global answer. A shard that is down,
// tripped or past its deadline is cut out of the merge: clients get the
// exact top-k over the surviving shards with degraded:true — never a 5xx
// while at least one shard answers. It has no add, swap or compact
// endpoint and no query cache: each shard swaps its own index, and the
// router cannot see a shard's epoch. /healthz is the router's own.
//
// Start a 3-shard fleet (disjoint modulo partition of the same corpus):
//
//	ragserve -addr :8081 -shard 0/3 -traces=false &
//	ragserve -addr :8082 -shard 1/3 -traces=false &
//	ragserve -addr :8083 -shard 2/3 -traces=false &
//	ragrouter -addr :8080 -shards http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083
//
// Search through the router exactly like a single ragserve:
//
//	curl -s localhost:8080/v1/chunks/search -d '{"query":"supernova light curves","k":5}'
//
// Kill a shard and the same query answers degraded (exact over the other
// two shards) while /healthz shows the breaker trip and, after the shard
// returns, the half-open probe closing it again:
//
//	kill %2 && curl -s localhost:8080/v1/chunks/search -d '{"query":"...","k":5}' | jq .degraded
//	curl -s localhost:8080/healthz | jq .shards
//
// A failed shard call is retried once after 5 ms (5xx and transport errors
// only); three consecutive failures trip the shard's breaker for 500 ms,
// after which the health prober (every 500 ms) runs the half-open probe.
// These are the router package's constants, not flags.
//
// SIGINT/SIGTERM drains gracefully like ragserve.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	shards := flag.String("shards", "", "comma-separated shard base URLs (required)")
	routes := flag.String("routes", "chunks", "comma-separated route names every shard serves")
	maxBatch := flag.Int("max-batch", 32, "coalescer batch size")
	maxDelay := flag.Duration("max-delay", time.Millisecond, "cap on the coalescer admission wait (the wait applied is one scatter/gather service time when that is shorter)")
	timeout := flag.Duration("timeout", 2*time.Second, "per-attempt shard deadline")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown window")
	debug := flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/ on the routing port")
	flag.Parse()

	if *shards == "" {
		flag.Usage()
		log.Fatal("ragrouter: -shards is required")
	}
	cfg := router.Config{
		Shards:       splitList(*shards),
		Routes:       splitList(*routes),
		MaxBatch:     *maxBatch,
		MaxDelay:     *maxDelay,
		ShardTimeout: *timeout,
		Debug:        *debug,
	}
	if err := run(*addr, *drain, cfg); err != nil {
		log.Fatal(err)
	}
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

func run(addr string, drain time.Duration, cfg router.Config) error {
	r, err := router.New(cfg)
	if err != nil {
		return err
	}
	if err := r.Start(addr); err != nil {
		return err
	}
	fmt.Printf("ragrouter listening on %s — %d shards, routes: %s\n",
		r.Addr(), len(cfg.Shards), strings.Join(r.Routes(), ", "))
	for i, url := range r.Shards() {
		fmt.Printf("  shard%d → %s\n", i, url)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	fmt.Println("\ndraining…")
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := r.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println(r.Registry().Render())
	return nil
}
