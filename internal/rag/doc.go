// Package rag implements the retrieval-augmented-generation layer: the
// chunk vector store and the three per-mode reasoning-trace vector stores
// of the paper's Figure 1, prompt assembly under each model's context
// window, and the measured retrieval-utility oracle that feeds the
// simulated students (DESIGN.md §4).
//
// ChunkStore and TraceStore wrap a vecstore index (Flat by default) with
// the domain records behind each key. Both expose the same scaling knobs:
// UseIndex swaps the exact index for one built from it — IVF-PQ or HNSW
// (recall vs memory vs QPS — see docs/ARCHITECTURE.md),
// RetrieveBatch answers whole question sets through the index's
// multi-query scan kernel (the query-embedding pool is built once per
// store and capped at the batch size — the serving hot path calls this
// per micro-batch), SaveIndex/vecstore.Load persist the store's vectors
// in the index's own VSF format, and IndexStats feeds the eval report's
// retrieval-configuration table.
//
// For the online layer, Facade (with the NewChunkFacade/NewTraceFacade
// adapters) presents both store kinds behind one store-agnostic
// interface — flattened Hit results with the batch's embed/scan/merge
// stages and per-query question exclusion — which internal/serve mounts
// as routes; the optional Swapper half adds the WithIndex hot-swap hook.
// The router's remote shard set implements Facade too.
package rag
