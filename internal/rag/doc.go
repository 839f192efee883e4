// Package rag implements the retrieval-augmented-generation layer: the
// chunk vector store and the three per-mode reasoning-trace vector stores
// of the paper's Figure 1, prompt assembly under each model's context
// window, and the measured retrieval-utility oracle that feeds the
// simulated students (DESIGN.md §4).
//
// ChunkStore and TraceStore are two thin named types over one core: a
// vecstore index (Flat by default) and the Hit record behind each key.
// Hit is the only retrieval record — the chunk store's hits are chunks
// (Group = document id), the trace stores' are traces (Group = source
// question id) — and it is also serve's wire record. Both stores serve an
// exact Flat and expose the same knobs: RetrieveBatch answers whole
// question sets through the index's multi-query scan kernel (the
// query-embedding pool is built once per store and capped at the batch
// size — the serving hot path retrieves per micro-batch),
// SaveIndex/vecstore.LoadFlat persist the store's vectors as VSF2, and
// IndexStats feeds the eval report's retrieval-configuration table. Only
// trace stores over-fetch by 2 and honour per-query question exclusion;
// only a chunk store goes live (EnableLive, AddChunks).
//
// Facade (NewChunkFacade/NewTraceFacade) presents both store kinds
// behind one store-agnostic interface — Hit results with the batch's
// embed/scan/merge stages and per-query exclusion — without copying a
// hit. The evaluation harness retrieves through it, internal/serve
// mounts it as routes, and the optional Swapper half adds the WithIndex
// hot-swap hook. The router's remote shard set implements Facade too, so
// the exam runs unchanged over the wire. Utility grades retrieved hits
// against the question's fact, looking a trace hit's fact up by its
// Group.
package rag
