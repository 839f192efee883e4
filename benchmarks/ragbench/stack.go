package main

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/chunk"
	"repro/internal/corpus"
	"repro/internal/rag"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/spdf"
	"repro/internal/vecstore"
)

// pipelineStages holds the wall time of each corpus pipeline stage, timed
// from outside round the stage's public entry point.
type pipelineStages struct {
	Generate, Encode, Parse, Split, Store time.Duration
	Docs, Chunks                          int
	Report                                *spdf.Report
}

// record copies the stage times into per-layer metrics.
func (p pipelineStages) record(r *runReport) {
	r.set("corpus.generate_s", p.Generate.Seconds(), p.Docs)
	r.set("spdf.encode_s", p.Encode.Seconds(), p.Docs)
	r.set("spdf.parse_s", p.Parse.Seconds(), p.Docs)
	r.set("spdf.salvaged", float64(p.Report.Salvaged), p.Docs)
	r.set("spdf.failed", float64(p.Report.Failed), p.Docs)
	r.set("chunk.split_s", p.Split.Seconds(), p.Chunks)
	r.set("chunk.chunks_per_s", float64(p.Chunks)/p.Split.Seconds(), p.Chunks)
	r.set("rag.chunkstore_build_s", p.Store.Seconds(), p.Chunks)
}

// corpusInputs is what the teacher-less front of the pipeline produces.
type corpusInputs struct {
	kb      *corpus.KB
	docs    []*corpus.Document
	parsed  []spdf.ParseResult
	chunks  []chunk.Chunk
	factsOf map[string][]corpus.FactID
	pathOf  map[string]string
}

// buildChunks runs corpus.GenerateAll -> spdf.Encode/ParseAll ->
// chunk.SplitAll exactly as core.BuildBenchmark does, one span per stage.
func buildChunks(seed uint64, scale float64, rec *recorder, parent int) (*corpusInputs, pipelineStages) {
	var st pipelineStages
	in := &corpusInputs{}
	st.Generate, _ = rec.timed("corpus.generate", parent, func() {
		in.kb = corpus.Build(seed, 40)
		in.docs = corpus.NewGenerator(in.kb, seed).GenerateAll(corpus.FullScale.Scaled(scale))
	})
	st.Docs = len(in.docs)
	payloads := make([][]byte, len(in.docs))
	names := make([]string, len(in.docs))
	in.factsOf = make(map[string][]corpus.FactID, len(in.docs))
	st.Encode, _ = rec.timed("spdf.encode", parent, func() {
		for i, d := range in.docs {
			payloads[i] = spdf.Encode(d)
			names[i] = "corpus/" + d.ID + ".spdf"
			in.factsOf[d.ID] = d.Facts
		}
	})
	st.Parse, _ = rec.timed("spdf.parse", parent, func() {
		in.parsed, st.Report = spdf.ParseAll(payloads, names, maxProcs)
	})
	var cdocs []chunk.Doc
	in.pathOf = make(map[string]string, len(in.parsed))
	for _, res := range in.parsed {
		if res.Parsed == nil || res.Parsed.Text == "" {
			continue
		}
		cdocs = append(cdocs, chunk.Doc{ID: res.Parsed.Meta.DocID, Text: res.Parsed.Text})
		in.pathOf[res.Parsed.Meta.DocID] = res.Path
	}
	st.Split, _ = rec.timed("chunk.split", parent, func() {
		in.chunks = chunk.New(chunk.DefaultConfig(), nil).SplitAll(cdocs, maxProcs)
	})
	st.Chunks = len(in.chunks)
	return in, st
}

// stack is one running serving deployment: a single ragserve, or three
// shards behind a router, all in-process on loopback.
type stack struct {
	in      *corpusInputs
	stages  pipelineStages
	stores  []*rag.ChunkStore
	flats   []*vecstore.Flat // each store's exact base index, for the oracle
	servers []*serve.Server
	router  *router.Router
	url     string
}

func servingConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.CacheCap = cacheCap
	cfg.CompactAt = compactAt
	return cfg
}

// bringUp builds the corpus and stores for workload and starts its servers;
// it returns once the front end answers /healthz. The wall time of this
// call is one set-up.
func bringUp(ctx context.Context, workload string, seed uint64, scale float64, rec *recorder) (_ *stack, err error) {
	start := time.Now()
	in, stages := buildChunks(seed, scale, rec, 0)
	s := &stack{in: in}
	defer func() {
		if err != nil {
			s.close() // stop whatever part of the deployment did start
		}
	}()
	parts := [][]chunk.Chunk{in.chunks}
	if workload == wlRouterFanout {
		parts = make([][]chunk.Chunk, routerShards)
		for i, ch := range in.chunks {
			parts[i%routerShards] = append(parts[i%routerShards], ch)
		}
	}
	stages.Store, _ = rec.timed("rag.chunkstore_build", 0, func() {
		for _, part := range parts {
			s.stores = append(s.stores, rag.BuildChunkStore(nil, part, maxProcs))
		}
	})
	s.stages = stages
	var urls []string
	for _, st := range s.stores {
		flat, ok := st.Index().(*vecstore.Flat)
		if !ok {
			return nil, fmt.Errorf("chunk store index is %T, want *vecstore.Flat", st.Index())
		}
		s.flats = append(s.flats, flat)
		if workload == wlIngestMixed {
			st.EnableLive()
		}
		srv := serve.New(st, servingConfig())
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("start ragserve: %w", err)
		}
		s.servers = append(s.servers, srv)
		urls = append(urls, "http://"+srv.Addr())
	}
	s.url = urls[0]
	if workload != wlRouterFanout {
		if _, err := serve.NewClient(s.url, nil).HealthzCtx(ctx); err != nil {
			return nil, fmt.Errorf("ragserve not healthy: %w", err)
		}
	} else {
		r, err := router.New(router.Config{Shards: urls})
		if err != nil {
			return nil, fmt.Errorf("router: %w", err)
		}
		if err := r.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("start router: %w", err)
		}
		s.router = r
		s.url = "http://" + r.Addr()
		if _, err := router.NewClient(s.url, nil).HealthzCtx(ctx); err != nil {
			return nil, fmt.Errorf("router not healthy: %w", err)
		}
	}
	rec.add("setup", 0, -1, start, time.Since(start))
	return s, nil
}

// close stops every server of the stack and waits for them to drain.
func (s *stack) close() {
	if s.router != nil {
		_ = s.router.Close() // shutting down; nothing to do about a drain error
	}
	for _, srv := range s.servers {
		_ = srv.Close() // same
	}
}

// keepAliveClient is one closed-loop client's transport: a single
// persistent connection, as the issue's load shape fixes.
func keepAliveClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
	}
}
