package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/router"
	"repro/internal/serve"
)

// tracedOpSpans caps how many measured ops get their full timeline copied
// into the span file; stage statistics still use every traced op.
const tracedOpSpans = 2000

// opRecord is one closed-loop operation as its client saw it. Latency is
// taken per op; an op that failed or returned a wrong answer keeps its
// record so it counts as missing every percentile instead of being dropped.
type opRecord struct {
	Index   int // position in the seed-determined op sequence
	Kind    opKind
	StartNS int64 // offset from the start of the load loop
	LatNS   int64
	Failed  bool              // transport/status error, or a verified-incorrect response
	Timing  *serve.TimingInfo // the server's stage timeline (traced searches only)
}

// searchReply is what a front end (ragserve or the router) answered.
type searchReply struct {
	Query    string // filled in for sampled replies only
	Results  []serve.SearchResult
	Degraded bool
	Timing   *serve.TimingInfo
}

// frontend is the one surface a load client talks to: the chunks route of
// a ragserve, or the router over the shard fleet.
type frontend interface {
	search(ctx context.Context, query string, timing bool) (searchReply, error)
	add(ctx context.Context, chunks []serve.AddChunk) (int, error)
}

type serveFront struct{ c *serve.Client }

func (f serveFront) search(ctx context.Context, query string, timing bool) (searchReply, error) {
	resp, err := f.c.SearchRouteReqCtx(ctx, serve.RouteChunks, serve.SearchRequest{Query: query, K: searchK, Timing: timing})
	return searchReply{Results: resp.Results, Timing: resp.Timing}, err
}

func (f serveFront) add(_ context.Context, chunks []serve.AddChunk) (int, error) {
	resp, err := f.c.AddRoute(serve.RouteChunks, chunks)
	return resp.Added, err
}

type routerFront struct{ c *router.Client }

func (f routerFront) search(ctx context.Context, query string, timing bool) (searchReply, error) {
	resp, err := f.c.SearchRouteReqCtx(ctx, serve.RouteChunks, serve.SearchRequest{Query: query, K: searchK, Timing: timing})
	return searchReply{Results: resp.Results, Degraded: resp.Degraded, Timing: resp.Timing}, err
}

func (f routerFront) add(context.Context, []serve.AddChunk) (int, error) {
	return 0, errNoRouterWrites
}

// newFrontend gives one load client its own keep-alive connection.
func (s *stack) newFrontend() (frontend, func()) {
	hc := keepAliveClient()
	if s.router != nil {
		return routerFront{router.NewClient(s.url, hc)}, hc.CloseIdleConnections
	}
	return serveFront{serve.NewClient(s.url, hc)}, hc.CloseIdleConnections
}

// tier names the front end's spans in the span file.
func (s *stack) tier() string {
	if s.router != nil {
		return "router."
	}
	return "serve."
}

// ackedInsert is one chunk the add endpoint acknowledged.
type ackedInsert struct{ ID, Text string }

// loopResult is what one closed-loop phase produced.
type loopResult struct {
	Records  []opRecord          // every op issued, warm-up included, by index
	WarmEnd  time.Duration       // ops starting before this are warm-up
	Sampled  map[int]searchReply // 1-in-oracleEvery search replies, by op index
	Acked    []ackedInsert
	Degraded int
}

// measured returns the records of ops that started inside the window.
func (l *loopResult) measured() []opRecord {
	out := make([]opRecord, 0, len(l.Records))
	for _, r := range l.Records {
		if time.Duration(r.StartNS) >= l.WarmEnd {
			out = append(out, r)
		}
	}
	return out
}

// runLoop drives the closed loop: loadClients clients each take the next
// index of seq from the shared counter, issue that op, wait for the reply,
// and repeat until the deadline. Ops that start during warm are excluded
// from the timing statistics but are still verified. With timing set every
// search asks the server for its stage timeline, and rec (if non-nil)
// receives per-op spans.
func runLoop(ctx context.Context, s *stack, seq *sequence, next *atomic.Int64, warm, window time.Duration, timing bool, rec *recorder) *loopResult {
	res := &loopResult{WarmEnd: warm, Sampled: make(map[int]searchReply)}
	var mu sync.Mutex // guards res.Sampled/Acked/Degraded
	perClient := make([][]opRecord, loadClients)
	var spanned atomic.Int64
	wantSpans := func(r opRecord) bool {
		return rec != nil && time.Duration(r.StartNS) >= warm && spanned.Add(1) <= tracedOpSpans
	}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fe, done := s.newFrontend()
			defer done()
			recs := make([]opRecord, 0, 1<<14)
			for ctx.Err() == nil && time.Since(start) < warm+window {
				i := int(next.Add(1) - 1)
				o := seq.At(i) // generated before the clock starts: not part of the op
				opStart := time.Now()
				r := opRecord{Index: i, Kind: o.Kind, StartNS: int64(opStart.Sub(start))}
				switch o.Kind {
				case opSearch:
					reply, err := fe.search(ctx, o.Query, timing)
					r.LatNS = int64(time.Since(opStart))
					r.Failed = err != nil || len(reply.Results) != searchK
					r.Timing = reply.Timing
					if err == nil && wantSpans(r) {
						recordOpSpans(rec, s.tier(), r, opStart)
					}
					if err == nil && (reply.Degraded || i%oracleEvery == 0) {
						mu.Lock()
						if reply.Degraded {
							res.Degraded++
						}
						if i%oracleEvery == 0 {
							reply.Query, reply.Timing = o.Query, nil
							res.Sampled[i] = reply
						}
						mu.Unlock()
					}
				case opAdd:
					added, err := fe.add(ctx, o.Adds)
					r.LatNS = int64(time.Since(opStart))
					r.Failed = err != nil || added != len(o.Adds)
					if wantSpans(r) {
						recordOpSpans(rec, s.tier(), r, opStart)
					}
					if err == nil {
						mu.Lock()
						for _, a := range o.Adds[:added] {
							res.Acked = append(res.Acked, ackedInsert{a.ID, a.Text})
						}
						mu.Unlock()
					}
				}
				recs = append(recs, r)
			}
			perClient[c] = recs
		}(c)
	}
	wg.Wait()
	for _, recs := range perClient {
		res.Records = append(res.Records, recs...)
	}
	sort.Slice(res.Records, func(i, j int) bool { return res.Records[i].Index < res.Records[j].Index })
	return res
}

// opStages are one traced op's server-side stage durations in microseconds,
// read from the timing timeline of its response.
type opStages struct {
	TotalUS int64
	// Front-tier stages by name (queue, cache, embed, scan, merge on a
	// ragserve; queue, scatter, merge on the router). A stage the request
	// never entered — embed and scan on a cache hit — is absent, not zero.
	Stage map[string]int64
	// Router only: the extent of each shard's grafted timeline.
	ShardMeanUS, ShardMaxUS, Shards int64
}

// foldTimeline reduces a response's span timeline to stage durations. The
// router grafts each shard's timeline in as "shardN.<stage>" spans; a
// shard's latency is taken as the extent of its spans.
func foldTimeline(ti *serve.TimingInfo) opStages {
	st := opStages{TotalUS: ti.TotalUS, Stage: make(map[string]int64, 6)}
	type extent struct{ lo, hi int64 }
	shards := make(map[string]*extent)
	for _, sp := range ti.Spans {
		shard, _, grafted := strings.Cut(sp.Name, ".")
		if !grafted {
			st.Stage[sp.Name] += sp.DurUS
			continue
		}
		e := shards[shard]
		if e == nil {
			e = &extent{sp.StartUS, sp.StartUS + sp.DurUS}
			shards[shard] = e
		}
		e.lo, e.hi = min(e.lo, sp.StartUS), max(e.hi, sp.StartUS+sp.DurUS)
	}
	for _, e := range shards {
		st.Shards++
		st.ShardMeanUS += e.hi - e.lo
		st.ShardMaxUS = max(st.ShardMaxUS, e.hi-e.lo)
	}
	if st.Shards > 0 {
		st.ShardMeanUS /= st.Shards
	}
	return st
}

// recordOpSpans copies one op into the span file: the client-observed call
// as the parent and the server's timeline entries as its children, centred
// in the client's interval (the two clocks share no zero, so the transport
// time is split evenly before and after). Shard spans hang off scatter.
func recordOpSpans(rec *recorder, tier string, r opRecord, start time.Time) {
	name, lat := "client.search", time.Duration(r.LatNS)
	if r.Kind == opAdd {
		name = "client.add"
	}
	parent := rec.add(name, 0, r.Index, start, lat)
	if r.Timing == nil {
		return
	}
	anchor := start.Add((lat - time.Duration(r.Timing.TotalUS)*time.Microsecond) / 2)
	scatter := parent
	var grafted []int
	for i, sp := range r.Timing.Spans {
		if strings.Contains(sp.Name, ".") {
			grafted = append(grafted, i)
			continue
		}
		id := rec.add(tier+sp.Name, parent, r.Index,
			anchor.Add(time.Duration(sp.StartUS)*time.Microsecond), time.Duration(sp.DurUS)*time.Microsecond)
		if sp.Name == "scatter" {
			scatter = id
		}
	}
	for _, i := range grafted {
		sp := r.Timing.Spans[i]
		rec.add(sp.Name, scatter, r.Index,
			anchor.Add(time.Duration(sp.StartUS)*time.Microsecond), time.Duration(sp.DurUS)*time.Microsecond)
	}
}
