// Command ragserve is the online retrieval server: it builds (or reloads)
// the chunk retrieval database plus the three per-mode reasoning-trace
// databases and serves them over the internal/serve HTTP API — one route
// per store, each with its own coalesced micro-batch search, query cache
// and hot index swap, plus shared /healthz and /metrics.
//
// Usage:
//
//	ragserve -addr :8080 -scale 0.02              # synthetic corpus
//	ragserve -artifacts out/                      # reuse saved artifacts
//	ragserve -save-index /tmp/idx.vsf             # keep a chunk swap target
//	ragserve -save-traces /tmp/tr                 # keep trace swap targets
//	ragserve -traces=false                        # chunk route only
//	ragserve -shard 1/3 -traces=false             # shard 1 of a 3-backend ragrouter fleet
//	ragserve -live -compact-at 1024               # accept inserts on the chunk route
//
// Hot swap while serving (per route):
//
//	curl -X POST localhost:8080/admin/chunks/swap -d '{"path":"/tmp/idx.vsf"}'
//	curl -X POST localhost:8080/admin/traces/detailed/swap -d '{"path":"/tmp/tr/traces_detailed.vsf"}'
//
// Live ingestion (with -live; memtable drains into the base automatically
// at -compact-at rows, or on demand):
//
//	curl -X POST localhost:8080/v1/chunks/add -d '{"chunks":[{"chunk_id":"new-1","text":"..."}]}'
//	curl -X POST localhost:8080/admin/chunks/compact
//
// SIGINT/SIGTERM drains gracefully: the listener closes immediately,
// in-flight requests finish within the -drain window.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/chunk"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rag"
	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	scale := flag.Float64("scale", 0.02, "fraction of the paper's corpus to build")
	seed := flag.Uint64("seed", 42, "corpus seed")
	artifacts := flag.String("artifacts", "", "load a saved artifact directory (from mcqgen) instead of regenerating")
	maxBatch := flag.Int("max-batch", 32, "coalescer batch size")
	maxDelay := flag.Duration("max-delay", time.Millisecond, "cap on the coalescer admission wait (the wait applied is one batch service time when that is shorter)")
	cacheCap := flag.Int("cache", 4096, "per-route query cache entries (0 disables)")
	traces := flag.Bool("traces", true, "serve the three reasoning-trace stores as /v1/traces/<mode> routes")
	live := flag.Bool("live", false, "accept live inserts on the chunk route (POST /v1/chunks/add) via a memtable layer")
	compactAt := flag.Int("compact-at", 1024, "with -live: memtable rows that trigger a background compaction into the base index (0 = manual /admin/chunks/compact only)")
	shard := flag.String("shard", "", `serve only chunk shard i of n ("i/n", 0-based): keep chunks at position%n == i, the ragrouter corpus partition (use -traces=false for shard fleets)`)
	saveIndex := flag.String("save-index", "", "also persist the chunk serving index to this VSF path (handy as a swap target)")
	saveTraces := flag.String("save-traces", "", "also persist the trace indexes to traces_<mode>.vsf under this directory")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown window")
	debug := flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/ on the serving port")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, "ragserve")
	// Reject bad flags before the corpus build: a typo'd shard spec should
	// fail in milliseconds, not after minutes of embedding.
	if err := validateConfig(*shard, *scale); err != nil {
		logger.Error("invalid configuration", "err", err)
		os.Exit(2)
	}
	if err := run(*addr, *artifacts, *saveIndex, *saveTraces, *shard, *scale, *seed,
		*maxBatch, *cacheCap, *compactAt, *maxDelay, *drain, *traces, *live, *debug, logger); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

// validateConfig checks flag values that would otherwise only fail deep
// inside the build or serve path.
func validateConfig(shard string, scale float64) error {
	if shard != "" {
		if _, _, err := parseShard(shard); err != nil {
			return err
		}
	}
	if scale <= 0 {
		return fmt.Errorf("-scale %v: want positive", scale)
	}
	return nil
}

func run(addr, artifactDir, saveIndex, saveTraces, shard string, scale float64, seed uint64,
	maxBatch, cacheCap, compactAt int, maxDelay, drain time.Duration, traces, live, debug bool, logger *obs.Logger) error {
	a, err := buildArtifacts(artifactDir, shard, scale, seed)
	if err != nil {
		return err
	}
	store := a.ChunkStore
	if saveIndex != "" {
		if err := store.SaveIndex(saveIndex); err != nil {
			return fmt.Errorf("save index: %w", err)
		}
		fmt.Printf("chunk index saved to %s\n", saveIndex)
	}
	if saveTraces != "" {
		if err := os.MkdirAll(saveTraces, 0o755); err != nil {
			return err
		}
		for mode, ts := range a.TraceStores {
			if ts.Len() == 0 {
				continue
			}
			path := filepath.Join(saveTraces, "traces_"+string(mode)+".vsf")
			if err := ts.SaveIndex(path); err != nil {
				return fmt.Errorf("save trace index %s: %w", mode, err)
			}
			fmt.Printf("trace index saved to %s\n", path)
		}
	}

	cfg := serve.DefaultConfig()
	cfg.MaxBatch = maxBatch
	cfg.MaxDelay = maxDelay
	cfg.CacheCap = cacheCap
	cfg.Debug = debug
	if live {
		// Mutable chunk route: a memtable layer accepts POST /v1/chunks/add
		// while searches keep running; the background compactor drains it
		// into the base index once it reaches -compact-at rows.
		if err := store.EnableLive(); err != nil {
			return err
		}
		cfg.CompactAt = compactAt
	}
	srv := serve.New(store, cfg)
	if traces {
		if err := srv.MountTraceStores(a.TraceStores); err != nil {
			return err
		}
	}
	if err := srv.Start(addr); err != nil {
		return err
	}
	st := store.IndexStats()
	fmt.Printf("ragserve listening on %s — %d chunks, %d traces, %s chunk index (%.1f bytes/vector), batch≤%d window≤%s cache=%d\n",
		srv.Addr(), len(a.Chunks), len(a.Traces), st.Kind, st.BytesPerVector(), maxBatch, maxDelay, cacheCap)
	fmt.Printf("routes: %s\n", strings.Join(srv.Routes(), ", "))
	logger.Info("serving", "addr", srv.Addr(), "routes", strings.Join(srv.Routes(), ","), "debug", debug)

	// SIGTERM drain: stop accepting, let in-flight requests finish.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	logger.Info("draining", "window", drain.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		logger.Error("shutdown incomplete", "err", err)
		return fmt.Errorf("shutdown: %w", err)
	}
	fmt.Println(srv.Registry().Render())
	return nil
}

func buildArtifacts(artifactDir, shard string, scale float64, seed uint64) (*core.Artifacts, error) {
	var a *core.Artifacts
	var err error
	if artifactDir != "" {
		fmt.Printf("loading artifacts from %s…\n", artifactDir)
		a, err = core.Load(artifactDir)
	} else {
		cfg := core.DefaultConfig(scale)
		cfg.Seed = seed
		fmt.Printf("building corpus at scale %.4f (seed %d)…\n", scale, seed)
		a, err = core.BuildBenchmark(cfg)
	}
	if err != nil {
		return nil, err
	}
	if shard != "" {
		if err := shardChunks(a, shard); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// shardChunks restricts the chunk corpus to shard i of n ("i/n"): the
// chunks at position%n == i, re-embedded into a fresh store. Position, not
// id hash, so the ragrouter fleet's shards are disjoint and their union is
// exactly the full corpus — the property the router's exact cross-shard
// merge rests on. All shards use the same deterministic default encoder,
// so a document scores bit-identically wherever it lives.
func shardChunks(a *core.Artifacts, spec string) error {
	i, n, err := parseShard(spec)
	if err != nil {
		return err
	}
	part := make([]chunk.Chunk, 0, len(a.Chunks)/n+1)
	for j, c := range a.Chunks {
		if j%n == i {
			part = append(part, c)
		}
	}
	fmt.Printf("shard %d/%d: %d of %d chunks\n", i, n, len(part), len(a.Chunks))
	a.Chunks = part
	a.ChunkStore = rag.BuildChunkStore(nil, part, 0)
	return nil
}

// parseShard parses an "i/n" shard spec (0-based, 0 <= i < n).
func parseShard(spec string) (i, n int, err error) {
	if _, err := fmt.Sscanf(spec, "%d/%d", &i, &n); err != nil || n <= 0 || i < 0 || i >= n {
		return 0, 0, fmt.Errorf(`bad -shard %q: want "i/n" with 0 <= i < n`, spec)
	}
	return i, n, nil
}
