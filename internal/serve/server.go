package serve

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/batch"
	"repro/internal/chunk"
	"repro/internal/httpkit"
	"repro/internal/mcq"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/rag"
	"repro/internal/vecstore"
)

// Store is the retrieval backend behind one route: the search half of the
// rag serving facade (RetrieveBatch over store-agnostic hits, Len). A store
// that also implements rag.Swapper (WithIndex, Index) can be hot-swapped,
// inserted into and compacted; rag.NewChunkFacade and rag.NewTraceFacade
// front the two local store kinds, and the router mounts a remote shard
// set that implements the search half only. Every store answers in
// rag.Hit, which is also the wire record (SearchResult), so no layer
// copies a hit.
type Store = rag.Facade

// RouteChunks is the name of the default chunk-store route, served at
// /v1/chunks/... like every other route.
const RouteChunks = "chunks"

// TraceRoute returns the route name of one reasoning-trace mode
// ("traces/detailed" etc.).
func TraceRoute(mode mcq.ReasoningMode) string { return "traces/" + string(mode) }

// The request limits and the cache shard count every route shares.
const (
	cacheShards = 8   // locks per query cache
	defaultK    = 5   // retrieval depth when a request omits k
	maxK        = 100 // deepest retrieval a request may ask for
	// maxBatchItems bounds one batch-search request and one insert:
	// unlike coalesced singles, an explicit batch bypasses MaxBatch and
	// would otherwise let one request run an unbounded RetrieveBatch or
	// memtable append.
	maxBatchItems = 1024
)

// Config parameterises a Server. Every mounted route gets its own
// coalescer and cache built from the same configuration.
type Config struct {
	// MaxBatch caps the coalesced batch handed to RetrieveBatch
	// (default 32).
	MaxBatch int
	// MaxDelay caps the admission window: the first request of a batch
	// waits for batchmates one smoothed batch service time, at most this
	// long (default 1ms; see internal/batch). A route's current window is
	// the serve.<route>.coalesce_window_us gauge on /metrics.
	MaxDelay time.Duration
	// CacheCap is the per-route query-cache capacity in entries; 0
	// disables the caches (default 4096 via DefaultConfig).
	CacheCap int
	// CompactAt triggers background compaction on a live (mutable) route
	// once its memtable reaches this many rows; 0 disables automatic
	// compaction (the /admin/<route>/compact endpoint still works).
	CompactAt int
	// Debug mounts net/http/pprof under /debug/pprof/. Off by default:
	// profiling endpoints on a serving port are opt-in.
	Debug bool
}

// DefaultConfig returns the serving defaults.
func DefaultConfig() Config {
	return Config{MaxBatch: 32, MaxDelay: time.Millisecond, CacheCap: 4096}
}

func (c *Config) fill() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = time.Millisecond
	}
}

// Snapshot is one immutable published state of a route: a store serving
// one index generation. Epoch increments on every hot swap of that route
// and is independent across routes.
type Snapshot struct {
	Store  Store
	Epoch  uint64
	Source string // where the index came from ("initial" or a VSF path)
}

// Server is the online retrieval server: an HTTP JSON front-end over one
// or more retrieval stores (the chunk store plus the per-mode trace
// stores), each mounted as a route with its own coalescer, query cache,
// epoch counter and metrics namespace — so a hot swap or purge on one
// store cannot evict entries or stall requests on another.
type Server struct {
	cfg     Config
	tier    string // metric namespace: "serve", or "router" on the router
	reg     *metrics.Registry
	routes  map[string]*route
	started atomic.Bool

	httpSrv *http.Server
	addr    string
}

// route is the per-store serving state. All fields are built once at
// Mount; the snapshot pointer is the only thing that changes afterwards.
type route struct {
	name    string
	cfg     Config
	prefix  string // the route's metric namespace
	reg     *metrics.Registry
	snap    atomic.Pointer[Snapshot]
	co      *batch.Coalescer[searchJob, searchOut]
	cache   *Cache
	flights flightGroup
	swapMu  sync.Mutex // serialises swaps (readers go through snap)

	// Write path (live ingestion). writeMu serialises inserts with each
	// other and with a compaction's publish step: writers load the
	// snapshot INSIDE writeMu, so an insert can never land in a memtable
	// that a concurrent compaction has already rotated out — the no-lost-
	// acked-inserts invariant. writeGen counts accepted insert batches and
	// is folded into cache keys (see search), so cached top-k from before
	// an insert cannot mask it. compacting admits one compaction at a time.
	writeMu    sync.Mutex
	writeGen   atomic.Uint64
	compacting atomic.Bool

	// slow retains the route's slowest completed traces for the debug
	// surface (GET /debug/slowlog/<route>).
	slow *obs.SlowLog

	// metric handles resolved once so the hot path skips registry lookups;
	// the store's own stages (rag.Stage names) resolve on first use in
	// stageHists, so a store books only the stages it has.
	mRequests, mHits, mMisses, mShared     *metrics.Counter
	mBatches, mBatchedQueries, mDegraded   *metrics.Counter
	mErrors, mSwaps                        *metrics.Counter
	mInserts, mInsertBatches, mCompactions *metrics.Counter
	hLatency, hSearch, hBatch              *metrics.Histogram
	hStageQueue, hStageCache, hStageEncode *metrics.Histogram
	stageHists                             sync.Map // stage name → *metrics.Histogram
	gVectors, gEpoch, gCacheLen, gMemRows  *metrics.Gauge
	gWindow                                *metrics.Gauge
}

type searchJob struct {
	query   string
	k       int
	exclude string // trace routes: suppress hits from this question id

	// Tracing: enq is when the job entered the coalescer (the queue span's
	// start) and tr the request's trace, so the batch function can attribute
	// the shared batch stages back to every member request. tr is nil for
	// untraced programmatic callers.
	enq time.Time
	tr  *obs.Trace
}

// searchOut carries one job's results plus the epoch of the snapshot the
// batch actually ran against (which can trail a concurrent swap), how
// many of the store's parts answered, and the store's error, if any.
type searchOut struct {
	results []rag.Hit
	epoch   uint64
	parts   rag.Parts
	err     error
}

// New builds a server with store mounted as the "chunks" route — the
// single-store constructor. Mount more stores (MountTraceStores) before
// Start, or use NewMulti to start from an empty route table.
func New(store *rag.ChunkStore, cfg Config) *Server {
	s := NewMulti(cfg)
	if err := s.Mount(RouteChunks, rag.NewChunkFacade(store)); err != nil {
		panic("serve: " + err.Error()) // unreachable: fresh server, fixed name
	}
	return s
}

// NewMulti builds a server with no routes. Mount stores, then Start.
func NewMulti(cfg Config) *Server { return NewTier("serve", cfg) }

// NewTier is NewMulti for a serving tier whose metrics live under its own
// namespace: tier "router" registers router.<route>.… where a backend
// registers serve.<route>.….
func NewTier(tier string, cfg Config) *Server {
	cfg.fill()
	return &Server{cfg: cfg, tier: tier, reg: metrics.NewRegistry(), routes: make(map[string]*route)}
}

// Mount registers st under name ("chunks", "traces/detailed", …) before
// the server starts. The route serves POST /v1/<name>/search and its
// /batch variant, plus the add, swap and compact endpoints when st
// implements rag.Swapper, with metrics under <tier>.<name>.… (path
// separators become dots).
func (s *Server) Mount(name string, st Store) error {
	if s.started.Load() {
		return fmt.Errorf("serve: Mount(%q) after Start", name)
	}
	if !validRouteName(name) {
		return fmt.Errorf("serve: invalid route name %q", name)
	}
	if st == nil {
		return fmt.Errorf("serve: Mount(%q): nil store", name)
	}
	if _, ok := s.routes[name]; ok {
		return fmt.Errorf("serve: route %q already mounted", name)
	}
	s.routes[name] = newRoute(name, st, s.cfg, s.reg, tierPrefix(s.tier, name))
	return nil
}

// MountTraceStores mounts every non-empty per-mode trace store under its
// TraceRoute name (the paper's three reasoning-trace databases behind the
// same front-end as the chunk store). Empty stores are skipped: they have
// nothing to serve, and every hot swap against them would be rejected by
// the snapshot validation anyway.
func (s *Server) MountTraceStores(stores map[mcq.ReasoningMode]*rag.TraceStore) error {
	for _, mode := range mcq.AllModes {
		ts, ok := stores[mode]
		if !ok || ts.Len() == 0 {
			continue
		}
		if err := s.Mount(TraceRoute(mode), rag.NewTraceFacade(ts)); err != nil {
			return err
		}
	}
	return nil
}

// Routes lists the mounted route names, sorted.
func (s *Server) Routes() []string {
	out := make([]string, 0, len(s.routes))
	for name := range s.routes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// validRouteName accepts lowercase path-style names ("chunks",
// "traces/detailed"): they appear verbatim in URLs and, with "/" mapped
// to ".", in metric names.
func validRouteName(name string) bool {
	if name == "" {
		return false
	}
	for _, seg := range strings.Split(name, "/") {
		if seg == "" {
			return false
		}
		for _, r := range seg {
			if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '_' && r != '-' {
				return false
			}
		}
	}
	return true
}

// MetricPrefix returns the metrics namespace of a route — "serve.<name>."
// with path separators mapped to dots — the prefix under which every
// per-route counter, gauge and histogram is registered. External readers
// (ragbench's per-route accounting) must build names through this instead
// of re-deriving the scheme.
func MetricPrefix(route string) string { return tierPrefix("serve", route) }

func tierPrefix(tier, route string) string {
	return tier + "." + strings.ReplaceAll(route, "/", ".") + "."
}

func newRoute(name string, st Store, cfg Config, reg *metrics.Registry, p string) *route {
	rt := &route{
		name:            name,
		cfg:             cfg,
		prefix:          p,
		reg:             reg,
		mRequests:       reg.Counter(p + "requests"),
		mHits:           reg.Counter(p + "cache.hits"),
		mMisses:         reg.Counter(p + "cache.misses"),
		mShared:         reg.Counter(p + "flight.shared"),
		mBatches:        reg.Counter(p + "batches"),
		mBatchedQueries: reg.Counter(p + "batch.queries"),
		mDegraded:       reg.Counter(p + "degraded"),
		mErrors:         reg.Counter(p + "errors"),
		mSwaps:          reg.Counter(p + "swaps"),
		mInserts:        reg.Counter(p + "inserts"),
		mInsertBatches:  reg.Counter(p + "insert.batches"),
		mCompactions:    reg.Counter(p + "compactions"),
		hLatency:        reg.Histogram(p + "latency"),
		hSearch:         reg.Histogram(p + "search.latency"),
		hBatch:          reg.SizeHistogram(p + "batch.size"),
		hStageQueue:     reg.Histogram(p + "stage.queue"),
		hStageEncode:    reg.Histogram(p + "stage.encode"),
		slow:            obs.NewSlowLog(0),
		gVectors:        reg.Gauge(p + "index.vectors"),
		gEpoch:          reg.Gauge(p + "index.epoch"),
		gCacheLen:       reg.Gauge(p + "cache.len"),
		gMemRows:        reg.Gauge(p + "index.memrows"),
		gWindow:         reg.Gauge(p + "coalesce_window_us"),
	}
	if cfg.CacheCap > 0 {
		rt.cache = NewCache(cfg.CacheCap, cacheShards)
		rt.hStageCache = reg.Histogram(p + "stage.cache")
	}
	rt.snap.Store(&Snapshot{Store: st, Epoch: 0, Source: "initial"})
	rt.gVectors.Set(int64(st.Len()))
	rt.co = batch.New(batch.Config{MaxBatch: cfg.MaxBatch, MaxDelay: cfg.MaxDelay}, rt.runBatch)
	return rt
}

// runBatch is a route's coalescer batch function: the whole batch is
// answered from one snapshot through the multi-query scan kernel, so a
// hot swap mid-batch cannot tear an individual batch across two indexes.
// The store sees the first traced member's trace: a remote store sends
// its id on and grafts the remote timelines onto it.
func (rt *route) runBatch(jobs []searchJob) []searchOut {
	snap := rt.snap.Load()
	t0 := time.Now()
	queries := make([]string, len(jobs))
	var excludes []string
	var lead *obs.Trace
	maxK := 0
	for i, j := range jobs {
		queries[i] = j.query
		if j.k > maxK {
			maxK = j.k
		}
		if j.exclude != "" && excludes == nil {
			excludes = make([]string, len(jobs))
		}
		if !j.enq.IsZero() {
			wait := t0.Sub(j.enq)
			rt.hStageQueue.Observe(wait)
			j.tr.AddSpan("queue", j.enq, wait)
		}
		if lead == nil {
			lead = j.tr
		}
	}
	if excludes != nil {
		for i, j := range jobs {
			excludes[i] = j.exclude
		}
	}
	b, err := rt.retrieve(obs.WithTrace(context.Background(), lead), snap, queries, maxK, excludes)
	// The batch's stage decomposition is shared by every member request:
	// the stages ran once for the whole batch, so each traced job gets the
	// same spans, laid end to end from the batch's start.
	for _, j := range jobs {
		attachStages(j.tr, t0, b.Stages)
	}
	// Each request gets the top-k prefix of the shared maxK retrieval —
	// identical to what its own k would have returned.
	out := make([]searchOut, len(jobs))
	for i := range out {
		if err != nil {
			out[i].err = err
			continue
		}
		res := b.Hits[i]
		if len(res) > jobs[i].k {
			res = res[:jobs[i].k]
		}
		out[i] = searchOut{results: res, epoch: snap.Epoch, parts: b.Parts}
	}
	return out
}

// attachStages records a retrieve's stages as consecutive spans starting
// at t0, the instant the retrieve began.
func attachStages(tr *obs.Trace, t0 time.Time, stages []rag.Stage) {
	if tr == nil {
		return
	}
	for _, st := range stages {
		tr.AddSpan(st.Name, t0, st.Dur)
		t0 = t0.Add(st.Dur)
	}
}

// retrieve runs one timed, metered RetrieveBatch against a snapshot — the
// shared core of the coalesced path and the explicit batch endpoint, so
// both report identical batch accounting. The returned stages feed the
// per-stage histograms here and the caller's trace spans.
func (rt *route) retrieve(ctx context.Context, snap *Snapshot, queries []string, k int, exclude []string) (rag.Batch, error) {
	start := time.Now()
	b, err := snap.Store.RetrieveBatch(ctx, queries, k, exclude)
	rt.hSearch.Observe(time.Since(start))
	// The hits go on the wire as the store returned them: a query with no
	// hits must still encode as [], not null.
	for i, hits := range b.Hits {
		if hits == nil {
			b.Hits[i] = []rag.Hit{}
		}
	}
	for _, st := range b.Stages {
		rt.stageHist(st.Name).Observe(st.Dur)
	}
	rt.mBatches.Inc()
	rt.mBatchedQueries.Add(int64(len(queries)))
	rt.hBatch.ObserveN(int64(len(queries)))
	return b, err
}

// stageHist returns the histogram of one of the store's stages,
// registering it the first time the store reports that stage.
func (rt *route) stageHist(name string) *metrics.Histogram {
	if h, ok := rt.stageHists.Load(name); ok {
		return h.(*metrics.Histogram)
	}
	h, _ := rt.stageHists.LoadOrStore(name, rt.reg.Histogram(rt.prefix+"stage."+name))
	return h.(*metrics.Histogram)
}

// search answers one query through the route's cache and coalescer. A
// result that some part of the store did not answer counts as degraded.
func (rt *route) search(ctx context.Context, query string, k int, exclude string) (out searchOut, cached bool, err error) {
	rt.mRequests.Inc()
	start := time.Now()
	defer func() {
		rt.hLatency.Observe(time.Since(start))
		if err == nil && out.parts.Partial() {
			rt.mDegraded.Inc()
		}
	}()
	k = depth(k)
	tr := obs.FromContext(ctx)
	job := searchJob{query: query, k: k, exclude: exclude, tr: tr}
	if rt.cache == nil {
		out, err = rt.dispatch(ctx, job)
		return out, false, err
	}
	// The epoch in the key makes entries generation-scoped: after a swap,
	// fresh lookups miss even if a stale fill lands post-Purge. The write
	// generation makes them insert-scoped: a live insert bumps writeGen
	// without an epoch change, so without it a cached top-k from before
	// the insert would keep masking the new row until the next swap.
	// writeGen is read BEFORE the snapshot: any insert counted by keyGen
	// completed its memtable append before bumping the generation, so the
	// fill (which scans after this point) observes at least those rows.
	// exclude is length-prefixed rather than delimited: it and query are
	// both client-controlled free-form strings, so a bare separator
	// between them would let distinct (exclude, query) pairs collide.
	keyGen := rt.writeGen.Load()
	snap := rt.snap.Load()
	keyEpoch := snap.Epoch
	key := fmt.Sprintf("%d\x1f%d\x1f%d\x1f%d\x1f%s%s", keyEpoch, keyGen, k, len(exclude), exclude, query)
	cacheStart := time.Now()
	val, ok := rt.cache.Get(key)
	cacheDur := time.Since(cacheStart)
	rt.hStageCache.Observe(cacheDur)
	tr.AddSpan("cache", cacheStart, cacheDur)
	if ok {
		rt.mHits.Inc()
		return searchOut{results: val.Results, epoch: val.Epoch, parts: val.Parts}, true, nil
	}
	rt.mMisses.Inc()
	val, shared, err := rt.flights.do(ctx, key, func() (CachedResult, error) {
		// Detach the batch dispatch from the leader's request context: a
		// flight computes a result shared by every joiner, so one
		// client's disconnect must not poison the rest (each caller still
		// guards its own wait with its own ctx inside do and co.Do).
		// Only the flight leader's job reaches the batch, so only its trace
		// sees the queue/embed/scan/merge spans; joiners share the result and
		// keep just their cache span — an honest timeline, they did no work.
		out, err := rt.dispatch(context.WithoutCancel(ctx), job)
		if err != nil {
			return CachedResult{}, err
		}
		res := CachedResult{Results: out.results, Epoch: out.epoch, Parts: out.parts}
		// Insert only fills that still belong to the key's generation, and
		// back the insert out if a swap purged the cache while it landed:
		// either way an entry keyed under a dead epoch is never read again
		// and would only squat LRU capacity until evicted. The post-Put
		// re-check closes the Purge/Put race — if the swap's purge ran
		// first, the published epoch has already moved on and we delete
		// our own orphan; if it runs after, it removes the entry itself.
		// A partial result is never cached: the parts that did not answer
		// may answer the next time.
		if out.epoch == keyEpoch && !out.parts.Partial() {
			rt.cache.Put(key, res)
			if rt.snap.Load().Epoch != keyEpoch || rt.writeGen.Load() != keyGen {
				rt.cache.Delete(key)
			}
		}
		return res, nil
	})
	if shared {
		rt.mShared.Inc()
	}
	return searchOut{results: val.Results, epoch: val.Epoch, parts: val.Parts}, false, err
}

// dispatch sends one job through the coalescer; a store error is the
// job's error.
func (rt *route) dispatch(ctx context.Context, job searchJob) (searchOut, error) {
	job.enq = time.Now()
	out, err := rt.co.Do(ctx, job)
	if err == nil {
		err = out.err
	}
	return out, err
}

// depth applies the default and the bound to a requested k.
func depth(k int) int {
	if k <= 0 {
		k = defaultK
	}
	return min(k, maxK)
}

// swapIndex atomically publishes a snapshot serving index on this route.
// In-flight requests finish against the old snapshot; the route's query
// cache is purged so no pre-swap result is served afterwards. Other
// routes' caches and epochs are untouched.
func (rt *route) swapIndex(index vecstore.Index, source string) (*Snapshot, error) {
	rt.swapMu.Lock()
	defer rt.swapMu.Unlock()
	cur := rt.snap.Load()
	sw, ok := cur.Store.(rag.Swapper)
	if !ok {
		return nil, fmt.Errorf("serve: route %q cannot swap its index", rt.name)
	}
	st, err := sw.WithIndex(index)
	if err != nil {
		return nil, err
	}
	snap := &Snapshot{Store: st, Epoch: cur.Epoch + 1, Source: source}
	rt.snap.Store(snap)
	if rt.cache != nil {
		rt.cache.Purge()
		rt.gCacheLen.Set(0)
	}
	rt.mSwaps.Inc()
	rt.gEpoch.Set(int64(snap.Epoch))
	rt.gVectors.Set(int64(index.Len()))
	rt.gMemRows.Set(int64(memRows(snap)))
	return snap, nil
}

func (s *Server) route(name string) (*route, error) {
	if rt, ok := s.routes[name]; ok {
		return rt, nil
	}
	return nil, fmt.Errorf("serve: unknown route %q (mounted: %s)", name, strings.Join(s.Routes(), ", "))
}

// SearchRoute answers one query on a named route. exclude is the trace
// routes' question self-exclusion id ("" for none; chunk routes ignore
// it). cached reports whether the result came from the query cache;
// epoch is the generation of the snapshot that actually produced the
// results (it can trail the currently published epoch across a
// concurrent swap).
func (s *Server) SearchRoute(ctx context.Context, routeName, query string, k int, exclude string) (results []rag.Hit, cached bool, epoch uint64, err error) {
	rt, err := s.route(routeName)
	if err != nil {
		return nil, false, 0, err
	}
	out, cached, err := rt.search(ctx, query, k, exclude)
	return out.results, cached, out.epoch, err
}

// SwapRouteIndex atomically publishes a snapshot of one route serving
// index; the other routes keep their epochs and warm caches.
func (s *Server) SwapRouteIndex(routeName string, index vecstore.Index, source string) (*Snapshot, error) {
	rt, err := s.route(routeName)
	if err != nil {
		return nil, err
	}
	return rt.swapIndex(index, source)
}

// SwapFromFile hot-swaps the chunks route from a VSF file (see
// SwapRouteFromFile).
func (s *Server) SwapFromFile(path string) (*Snapshot, error) {
	return s.SwapRouteFromFile(RouteChunks, path)
}

// SwapRouteFromFile loads a persisted Flat index (VSF2) in the calling
// goroutine — the expensive part, off the serving path — then publishes it
// on the route with swapIndex. On a live route the swapped-in Flat gets a
// fresh memtable, so the route keeps accepting inserts.
func (s *Server) SwapRouteFromFile(routeName, path string) (*Snapshot, error) {
	rt, err := s.route(routeName)
	if err != nil {
		return nil, err
	}
	return rt.swapFromFile(path)
}

// swapFromFile is the load-then-publish sequence shared by the
// programmatic and HTTP swap paths.
func (rt *route) swapFromFile(path string) (*Snapshot, error) {
	index, err := vecstore.LoadFlat(path)
	if err != nil {
		return nil, fmt.Errorf("serve: swap load: %w", err)
	}
	return rt.swapIndex(index, path)
}

// addChunks inserts a batch on a live route. The snapshot is loaded while
// writeMu is held: a concurrent compaction publishes its rotated snapshot
// under the same lock, so an insert either lands in the memtable before
// rotation copies it forward, or in the fresh memtable after — never in a
// memtable that has already been discarded.
func (rt *route) addChunks(chunks []chunk.Chunk) (AddResponse, error) {
	rt.writeMu.Lock()
	snap := rt.snap.Load()
	ing, ok := snap.Store.(rag.Ingestor)
	if !ok {
		rt.writeMu.Unlock()
		return AddResponse{}, fmt.Errorf("serve: route %q does not accept inserts (not mounted live)", rt.name)
	}
	added, err := ing.AddChunks(chunks)
	if err != nil {
		rt.writeMu.Unlock()
		return AddResponse{}, err
	}
	gen := rt.writeGen.Add(1)
	vectors := snap.Store.Len()
	memRows := memRows(snap)
	rt.writeMu.Unlock()

	rt.mInserts.Add(int64(added))
	rt.mInsertBatches.Inc()
	rt.gVectors.Set(int64(vectors))
	rt.gMemRows.Set(int64(memRows))
	if rt.cfg.CompactAt > 0 && memRows >= rt.cfg.CompactAt {
		go rt.compactBehind()
	}
	return AddResponse{Added: added, Vectors: vectors, MemRows: memRows, Epoch: snap.Epoch, WriteGen: gen, Route: rt.name}, nil
}

// compactBehind is the background compaction: it compacts for as long as
// the memtable holds CompactAt rows or more. One compaction runs at a
// time, so an add landing during an in-flight one has its own trigger
// declined; every compaction therefore re-checks here once it has
// finished, or those rows would wait for a next add that may never come.
func (rt *route) compactBehind() {
	for rt.cfg.CompactAt > 0 && memRows(rt.snap.Load()) >= rt.cfg.CompactAt {
		if ok, err := rt.compactOnce(); !ok || err != nil {
			return // declined beside a running one (it re-checks), swapped out, or failed
		}
	}
}

// compact is the admin compaction: one compactOnce, then the background
// re-check for rows that arrived while it ran.
func (rt *route) compact() (bool, error) {
	ok, err := rt.compactOnce()
	go rt.compactBehind()
	return ok, err
}

// compactOnce drains the route's memtable into its base index and
// publishes the result. The slow step (CompactBase, the row copy) runs
// outside every lock, concurrent with searches and further inserts; only
// the rotate+publish step takes writeMu. If an admin swap replaced the
// snapshot while the copy ran, the compaction is dropped rather than
// resurrect the old corpus. Returns whether a compaction was published.
func (rt *route) compactOnce() (bool, error) {
	if !rt.compacting.CompareAndSwap(false, true) {
		return false, nil // one at a time; the running one re-checks when done
	}
	defer rt.compacting.Store(false)
	snap := rt.snap.Load()
	lv := liveIndex(snap)
	if lv == nil {
		return false, fmt.Errorf("serve: route %q has no live index to compact", rt.name)
	}
	n := lv.MemLen()
	if n == 0 {
		return false, nil
	}
	newBase, err := lv.CompactBase(n)
	if err != nil {
		return false, fmt.Errorf("serve: compact %q: %w", rt.name, err)
	}
	rt.writeMu.Lock()
	defer rt.writeMu.Unlock()
	if rt.snap.Load() != snap {
		return false, nil // an admin swap won the race; drop this compaction
	}
	next := lv.Rotate(newBase, n)
	if _, err := rt.swapIndex(next, "compaction"); err != nil {
		return false, fmt.Errorf("serve: compact %q publish: %w", rt.name, err)
	}
	rt.mCompactions.Inc()
	return true, nil
}

// liveIndex returns the snapshot's mutable index, or nil when the store
// has no index or a read-only one.
func liveIndex(snap *Snapshot) *vecstore.Live {
	sw, ok := snap.Store.(rag.Swapper)
	if !ok {
		return nil
	}
	lv, _ := sw.Index().(*vecstore.Live)
	return lv
}

// memRows is the snapshot's memtable size (0 without a live index).
func memRows(snap *Snapshot) int {
	if lv := liveIndex(snap); lv != nil {
		return lv.MemLen()
	}
	return 0
}

// AddChunks inserts chunks on a live-mounted route (programmatic
// counterpart of POST /v1/<route>/add). The target store must implement
// rag.Ingestor — a chunk store with EnableLive called before Mount.
func (s *Server) AddChunks(routeName string, chunks []chunk.Chunk) (AddResponse, error) {
	rt, err := s.route(routeName)
	if err != nil {
		return AddResponse{}, err
	}
	return rt.addChunks(chunks)
}

// CompactRoute synchronously drains a live route's memtable into its base
// index and publishes the compacted snapshot (programmatic counterpart of
// POST /admin/<route>/compact). Returns whether a compaction was
// published — false when the memtable was empty or another compaction was
// already running.
func (s *Server) CompactRoute(routeName string) (bool, error) {
	rt, err := s.route(routeName)
	if err != nil {
		return false, err
	}
	return rt.compact()
}

// RouteSnapshot returns the currently published snapshot of one route.
func (s *Server) RouteSnapshot(routeName string) (*Snapshot, bool) {
	rt, ok := s.routes[routeName]
	if !ok {
		return nil, false
	}
	return rt.snap.Load(), true
}

// Registry exposes the server's metrics registry.
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Handler returns the HTTP API. Per mounted route <name>:
//
//	POST /v1/<name>/search        {"query","k","exclude"} → {"results":[...],"cached","epoch","route"}
//	POST /v1/<name>/search/batch  {"queries":[...],"k","exclude":[...]} → {"results":[[...],...]}
//	POST /v1/<name>/add           {"chunks":[{"chunk_id","doc_id","text"},...]} → {"added","vectors","mem_rows","epoch","write_gen","route"}
//	POST /admin/<name>/swap       {"path"} → {"epoch","vectors","source","route"}
//	POST /admin/<name>/compact    (no body) → {"compacted","epoch","vectors","mem_rows","route"}
//
// A search over a store split into parts also carries "degraded",
// "shards_ok" and "shards_total"; a store error answers 503. The add,
// swap and compact endpoints exist only on routes whose store implements
// rag.Swapper (elsewhere they answer 404). The add endpoint works only on
// routes mounted over a live (mutable) store and rejects others with 400;
// compact is a no-op on them.
//
// plus the shared endpoints:
//
//	GET  /healthz   {"status","routes":{<name>:{"epoch","vectors","source"}}}
//	GET  /metrics   text exposition of the registry
//
// and the debug surface:
//
//	GET  /debug/slowlog/<route>   {"route","slowest":[trace records]}
//	GET  /debug/pprof/...         net/http/pprof (only with Config.Debug)
func (s *Server) Handler() http.Handler {
	s.started.Store(true)
	mux := http.NewServeMux()
	slow := make(map[string]*obs.SlowLog, len(s.routes))
	for name, rt := range s.routes {
		mux.HandleFunc("POST /v1/"+name+"/search", rt.handleSearch)
		mux.HandleFunc("POST /v1/"+name+"/search/batch", rt.handleSearchBatch)
		if _, ok := rt.snap.Load().Store.(rag.Swapper); ok {
			mux.HandleFunc("POST /v1/"+name+"/add", rt.handleAdd)
			mux.HandleFunc("POST /admin/"+name+"/swap", rt.handleSwap)
			mux.HandleFunc("POST /admin/"+name+"/compact", rt.handleCompact)
		}
		slow[name] = rt.slow
	}
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	httpkit.MountDebug(mux, slow, s.cfg.Debug)
	return mux
}

// Start binds addr ("127.0.0.1:0" for an ephemeral port) and serves in the
// background until Shutdown. Mount every store before Start.
func (s *Server) Start(addr string) error {
	var err error
	s.httpSrv, s.addr, err = httpkit.Start(addr, s.Handler)
	return err
}

// Addr returns the bound address (after Start).
func (s *Server) Addr() string { return s.addr }

// Shutdown drains gracefully: the listener stops accepting, in-flight
// requests run to completion (bounded by ctx), and only then do the
// route coalescers stop — the SIGTERM-drain pattern.
func (s *Server) Shutdown(ctx context.Context) error {
	err := httpkit.Shutdown(ctx, s.httpSrv)
	for _, rt := range s.routes {
		rt.co.Close()
	}
	return err
}

// Close is Shutdown with a bounded drain window.
func (s *Server) Close() error { return httpkit.Close(s.Shutdown) }

// Wire types.

// SearchRequest is the single-query search body. Exclude is honoured by
// trace routes only: it suppresses traces distilled from that question id
// (the cross-question ablation rule).
type SearchRequest struct {
	Query   string `json:"query"`
	K       int    `json:"k,omitempty"`
	Exclude string `json:"exclude,omitempty"`
	// Timing opts the response into the per-stage trace timeline.
	Timing bool `json:"timing,omitempty"`
}

// TimingInfo is the opt-in per-request trace a response carries when the
// request set "timing": the trace id (minted, or adopted from the caller's
// X-Trace-Id header), the total microseconds since the handler adopted the
// trace, and the ordered span timeline. It is snapshotted before response
// encoding, so the encode span itself appears only in the slowlog and the
// stage.encode histogram.
type TimingInfo struct {
	TraceID string     `json:"trace_id"`
	TotalUS int64      `json:"total_us"`
	Spans   []obs.Span `json:"spans"`
}

// SearchResult is one retrieval hit on the wire: the stores' own record,
// encoded as it left the store. ID/Group are chunk id/doc id on chunk
// routes and trace id/source-question id on trace routes; Text is the
// chunk text or the reasoning trace.
type SearchResult = rag.Hit

// SearchResponse is the single-query search reply. Over a store split
// into shards, ShardsOK of ShardsTotal answered, and Degraded says the
// results are the exact top-k over the shards that did.
type SearchResponse struct {
	Results     []SearchResult `json:"results"`
	Cached      bool           `json:"cached,omitempty"`
	Epoch       uint64         `json:"epoch"`
	Degraded    bool           `json:"degraded,omitempty"`
	ShardsOK    int            `json:"shards_ok,omitempty"`
	ShardsTotal int            `json:"shards_total,omitempty"`
	Route       string         `json:"route,omitempty"`
	Timing      *TimingInfo    `json:"timing,omitempty"`
}

// BatchSearchRequest is the batch search body. Exclude is empty or one
// entry per query (trace routes only).
type BatchSearchRequest struct {
	Queries []string `json:"queries"`
	K       int      `json:"k,omitempty"`
	Exclude []string `json:"exclude,omitempty"`
	// Timing opts the response into the per-stage trace timeline.
	Timing bool `json:"timing,omitempty"`
}

// BatchSearchResponse is the batch search reply, per-query results in
// request order, with SearchResponse's shard fields for the whole batch.
type BatchSearchResponse struct {
	Results     [][]SearchResult `json:"results"`
	Epoch       uint64           `json:"epoch"`
	Degraded    bool             `json:"degraded,omitempty"`
	ShardsOK    int              `json:"shards_ok,omitempty"`
	ShardsTotal int              `json:"shards_total,omitempty"`
	Route       string           `json:"route,omitempty"`
	Timing      *TimingInfo      `json:"timing,omitempty"`
}

// SwapRequest is the swap body.
type SwapRequest struct {
	Path string `json:"path"`
}

// SwapResponse is the swap reply.
type SwapResponse struct {
	Epoch   uint64 `json:"epoch"`
	Vectors int    `json:"vectors"`
	Source  string `json:"source"`
	Route   string `json:"route,omitempty"`
}

// AddChunk is one chunk to insert on a live route.
type AddChunk struct {
	ID    string `json:"chunk_id"`
	DocID string `json:"doc_id,omitempty"`
	Text  string `json:"text"`
}

// AddRequest is the live-insert body.
type AddRequest struct {
	Chunks []AddChunk `json:"chunks"`
}

// AddResponse is the live-insert reply. WriteGen is the route's write
// generation after this insert; MemRows is the memtable size after it
// (before any compaction the insert may have triggered).
type AddResponse struct {
	Added    int    `json:"added"`
	Vectors  int    `json:"vectors"`
	MemRows  int    `json:"mem_rows"`
	Epoch    uint64 `json:"epoch"`
	WriteGen uint64 `json:"write_gen"`
	Route    string `json:"route,omitempty"`
}

// CompactResponse is the admin-compact reply. Compacted is false when the
// memtable was empty or another compaction was in flight.
type CompactResponse struct {
	Compacted bool   `json:"compacted"`
	Epoch     uint64 `json:"epoch"`
	Vectors   int    `json:"vectors"`
	MemRows   int    `json:"mem_rows"`
	Route     string `json:"route,omitempty"`
}

// RouteHealth is one route's health summary.
type RouteHealth struct {
	Epoch   uint64 `json:"epoch"`
	Vectors int    `json:"vectors"`
	Source  string `json:"source"`
}

// Healthz is the /healthz reply. Status is "ok", or "degraded" when any
// mounted route has zero vectors loaded (an empty shard serves nothing,
// and an upstream prober must be able to tell). Routes carries every
// mounted store's epoch, vector count and index source.
type Healthz struct {
	Status string                 `json:"status"`
	Routes map[string]RouteHealth `json:"routes"`
}

func (rt *route) handleSearch(w http.ResponseWriter, r *http.Request) {
	var req SearchRequest
	if !httpkit.Decode(w, r, rt.mErrors, &req) {
		return
	}
	if req.Query == "" {
		rt.mErrors.Inc()
		http.Error(w, "empty query", http.StatusBadRequest)
		return
	}
	// Adopt the caller's trace id (router → shard propagation) or mint one.
	tr := obs.NewTrace(r.Header.Get(obs.TraceHeader))
	out, cached, err := rt.search(obs.WithTrace(r.Context(), tr), req.Query, req.K, req.Exclude)
	if err != nil {
		rt.mErrors.Inc()
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	resp := SearchResponse{Results: out.results, Cached: cached, Epoch: out.epoch,
		Degraded: out.parts.Partial(), ShardsOK: out.parts.OK, ShardsTotal: out.parts.Total, Route: rt.name}
	if req.Timing {
		// Snapshot before encoding: the response timing necessarily excludes
		// its own encode span (it still lands in the slowlog and histogram).
		resp.Timing = &TimingInfo{TraceID: tr.ID(), TotalUS: tr.Since().Microseconds(), Spans: tr.Spans()}
	}
	httpkit.EncodeTraced(w, tr, rt.hStageEncode, resp)
	rt.slow.Record(tr, "search", req.Query)
}

// handleSearchBatch serves an already-batched request straight through the
// batch kernel — it is its own micro-batch, so it bypasses the coalescer
// and cache.
func (rt *route) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSearchRequest
	if !httpkit.Decode(w, r, rt.mErrors, &req) {
		return
	}
	if len(req.Queries) == 0 {
		rt.mErrors.Inc()
		http.Error(w, "empty queries", http.StatusBadRequest)
		return
	}
	if len(req.Queries) > maxBatchItems {
		rt.mErrors.Inc()
		http.Error(w, fmt.Sprintf("batch of %d exceeds limit %d", len(req.Queries), maxBatchItems),
			http.StatusRequestEntityTooLarge)
		return
	}
	if len(req.Exclude) != 0 && len(req.Exclude) != len(req.Queries) {
		rt.mErrors.Inc()
		http.Error(w, fmt.Sprintf("exclude has %d entries for %d queries", len(req.Exclude), len(req.Queries)),
			http.StatusBadRequest)
		return
	}
	rt.mRequests.Add(int64(len(req.Queries)))
	tr := obs.NewTrace(r.Header.Get(obs.TraceHeader))
	snap := rt.snap.Load()
	t0 := time.Now()
	b, err := rt.retrieve(obs.WithTrace(r.Context(), tr), snap, req.Queries, depth(req.K), req.Exclude)
	attachStages(tr, t0, b.Stages)
	if err != nil {
		rt.mErrors.Inc()
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if b.Parts.Partial() {
		rt.mDegraded.Add(int64(len(req.Queries)))
	}
	out := BatchSearchResponse{Results: b.Hits, Epoch: snap.Epoch,
		Degraded: b.Parts.Partial(), ShardsOK: b.Parts.OK, ShardsTotal: b.Parts.Total, Route: rt.name}
	if req.Timing {
		out.Timing = &TimingInfo{TraceID: tr.ID(), TotalUS: tr.Since().Microseconds(), Spans: tr.Spans()}
	}
	httpkit.EncodeTraced(w, tr, rt.hStageEncode, out)
	rt.slow.Record(tr, "search/batch", req.Queries[0])
}

func (rt *route) handleSwap(w http.ResponseWriter, r *http.Request) {
	var req SwapRequest
	if !httpkit.Decode(w, r, rt.mErrors, &req) {
		return
	}
	if req.Path == "" {
		rt.mErrors.Inc()
		http.Error(w, "empty path", http.StatusBadRequest)
		return
	}
	snap, err := rt.swapFromFile(req.Path)
	if err != nil {
		rt.mErrors.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	httpkit.WriteJSON(w, SwapResponse{Epoch: snap.Epoch, Vectors: snap.Store.Len(), Source: snap.Source, Route: rt.name})
}

func (rt *route) handleAdd(w http.ResponseWriter, r *http.Request) {
	var req AddRequest
	if !httpkit.Decode(w, r, rt.mErrors, &req) {
		return
	}
	if len(req.Chunks) == 0 {
		rt.mErrors.Inc()
		http.Error(w, "empty chunks", http.StatusBadRequest)
		return
	}
	if len(req.Chunks) > maxBatchItems {
		rt.mErrors.Inc()
		http.Error(w, fmt.Sprintf("insert of %d exceeds limit %d", len(req.Chunks), maxBatchItems),
			http.StatusRequestEntityTooLarge)
		return
	}
	chunks := make([]chunk.Chunk, len(req.Chunks))
	for i, c := range req.Chunks {
		chunks[i] = chunk.Chunk{ID: c.ID, DocID: c.DocID, Text: c.Text}
	}
	resp, err := rt.addChunks(chunks)
	if err != nil {
		rt.mErrors.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	httpkit.WriteJSON(w, resp)
}

// handleCompact triggers a synchronous compaction; the body is ignored.
func (rt *route) handleCompact(w http.ResponseWriter, _ *http.Request) {
	compacted, err := rt.compact()
	if err != nil {
		rt.mErrors.Inc()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	snap := rt.snap.Load()
	httpkit.WriteJSON(w, CompactResponse{Compacted: compacted, Epoch: snap.Epoch, Vectors: snap.Store.Len(), MemRows: memRows(snap), Route: rt.name})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// A mounted route with zero vectors answers every search with nothing —
	// alive but useless. Report "degraded" instead of "ok" so an upstream
	// health prober (the router's) can tell an empty shard from a healthy
	// one without issuing probe queries.
	hz := Healthz{Status: "ok", Routes: make(map[string]RouteHealth, len(s.routes))}
	for name, rt := range s.routes {
		snap := rt.snap.Load()
		vectors := snap.Store.Len()
		if vectors == 0 {
			hz.Status = "degraded"
		}
		hz.Routes[name] = RouteHealth{Epoch: snap.Epoch, Vectors: vectors, Source: snap.Source}
	}
	httpkit.WriteJSON(w, hz)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// The cache-size gauges are refreshed here rather than on every fill:
	// Len locks all shards, which would re-serialize the miss paths. The
	// coalescing window is likewise read when asked for, not pushed per
	// batch.
	for _, rt := range s.routes {
		if rt.cache != nil {
			rt.gCacheLen.Set(int64(rt.cache.Len()))
		}
		rt.gWindow.Set(rt.co.Stats().Window.Microseconds())
	}
	httpkit.WriteMetrics(w, s.reg)
}
