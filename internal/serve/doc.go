// Package serve is the online retrieval layer: an HTTP JSON server that
// puts the repo's retrieval stores — the chunk database plus the three
// per-mode reasoning-trace databases — behind a socket, with the
// serving-time machinery a production deployment needs.
//
// The server is a front-end over a small store interface (Store, an alias
// of rag.Facade, the search half: RetrieveBatch, which takes the batch
// leader's trace in its context and returns hits, the batch's named
// stages and how many of the store's parts answered, or an error; and
// Len). The hits are rag.Hit, and so is the wire record (SearchResult is
// an alias), so a store's hits are encoded as they are, with no copy; a
// query without hits still answers []. The swap half, rag.Swapper (the WithIndex snapshot hook and
// Index), is optional: local stores have it, the router's remote shard
// set does not, and a route without it serves searches only.
// Each store is mounted as a named route ("chunks", "traces/detailed", …)
// served at /v1/<route>/search (+ /batch) and /admin/<route>/swap, and
// every route gets its own copy of the serving machinery, so a hot swap
// or cache purge on one store can never evict entries, bump epochs, or
// stall requests on another. Per route:
//
//   - Request coalescing. Concurrent single-query requests are packed
//     into micro-batches (internal/batch, the same admission-window
//     coalescer behind the argo model gateway) and dispatched through the
//     store's RetrieveBatch — so the vecstore multi-query kernel streams
//     the codes once for the whole batch. Trace-route requests carry the
//     per-query question self-exclusion id through the same batches.
//
//   - Query cache. A sharded LRU keyed by (epoch, k, exclude, query)
//     with singleflight de-duplication: repeated queries are answered
//     without touching the index, and concurrent identical misses
//     collapse into one search. Shard capacities sum to exactly the
//     configured total, and a fill that races a hot swap is dropped
//     rather than left squatting under a dead epoch.
//
//   - Hot index swap. Each route publishes immutable Snapshots through an
//     atomic pointer. A replacement index (a VSF2 Flat) is loaded off the
//     serving path, wrapped via the facade's WithIndex hook (a live
//     route's swapped-in Flat gets a fresh memtable layer), and
//     swapped in with one pointer store; the route's cache is purged and
//     its epoch incremented — other routes keep serving warm. In-flight
//     batches finish on the old snapshot — zero downtime, no torn reads.
//
//   - Stores split into parts. A batch some parts did not answer is
//     served with degraded, shards_ok and shards_total on the reply,
//     counted per query under <route>.degraded, and never cached; a
//     store error answers 503. internal/router is this server over a
//     remote shard set (NewTier("router", …)), with the cache off.
//
//   - Observability and load. /healthz reports every route's epoch,
//     vector count and index source under routes.<name>; /metrics is
//     the text exposition of an internal/metrics Registry with one
//     namespace per route (serve.chunks.…, serve.traces.detailed.…:
//     QPS counters, batch-size distribution, cache hit rate, latency
//     quantiles). RunLoad/RunLoadMixed drive closed/open-loop,
//     uniform/zipf and mixed-route load for cmd/ragload and the tests.
//
// The HTTP scaffolding (request decoding, response encoding, the debug
// surface, listen/drain) is internal/httpkit, shared with the router.
// cmd/ragserve wires the stores to a corpus and a SIGTERM drain;
// cmd/ragload is the matching load generator; measured performance is
// ragbench's (benchmarks/README.md).
package serve
