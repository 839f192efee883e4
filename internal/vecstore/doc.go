// Package vecstore is the vector-database substrate standing in for FAISS.
//
// The paper stores 173,318 PubMedBERT chunk embeddings as FP16 in FAISS and
// three additional stores of reasoning-trace embeddings. This package
// provides the same capabilities in pure Go:
//
//   - Flat: exact inner-product / cosine search (FAISS IndexFlatIP),
//   - HNSW: graph-based approximate search (FAISS IndexHNSWFlat),
//   - IVFPQ: a k-means coarse quantizer with nprobe search composed with
//     product-quantized cells scored by LUT-based asymmetric distance
//     (FAISS IndexIVFPQ) — M bytes per vector instead of 2 per dimension —
//     with optional residual encoding (codes quantize x − anchor(cell),
//     scored through per-cell shifted LUTs),
//   - Memtable and Live: the mutable tier over a Flat base,
//   - attached per-vector metadata payloads (ids, provenance),
//   - binary persistence of Flat (VSF2), and parallel single- and
//     multi-query batch search.
//
// Only Flat (under Live when inserts are on) is served. HNSW and IVF-PQ
// are built once in memory from a Flat (ToHNSW, ToIVFPQ) and only
// searched: they are never saved, compacted into or served; the ANN
// benchmark probe and the trade-off table read them.
//
// docs/ARCHITECTURE.md describes the index zoo and when to pick which
// index; docs/VSF_FORMAT.md is the byte-level persistence specification.
//
// # Storage layout and scan kernel
//
// All code-based indexes use FAISS's contiguous-block layout: one flat
// array holds every row, with row i at codes[i*stride:(i+1)*stride] (Flat,
// the memtable and HNSW globally; IVFPQ as one contiguous block per
// inverted list). There are no per-vector slice headers and no
// pointer dereferences on the scan path. FP16 searches run through one
// blocked scan loop over one block type, halfBlock (scan.go), that walks
// the codes in tiles of scanTileRows (64) rows and scores each tile against
// the query batch. Rows are scored in groups of up to eight straight from
// the codes by f16.DotRows — one pass (F16C assembly on amd64) gives the
// core eight independent add chains, and a lone 384-dim dot is bound by
// add latency, not decode.
// Blocks with at least segmentMinRows (4096) rows of work per core are
// split into GOMAXPROCS segments scanned concurrently with per-segment
// top-k heaps merged exactly at the end, so a single query saturates the
// machine.
//
// Flat and the memtable share one segment-parallel batch scan,
// searchSegments, and take an int8 first pass through it that is exact by
// proof (firstpass.go, after the VA-file's bound-filtered scan). Each
// FP16 row x̂ carries int8 codes c_x with a per-row scale s_x, the norm
// of its residual e_x = x̂ − s_x·c_x and the norm of x̃ = s_x·c_x, both
// rounded up: dim + 12 bytes per row, derived at Add, at VSF2 load and at
// compaction, never stored. A query is quantized the same way once per
// batch. The exact integer dot gives an estimate s_q·s_x·(c_q·c_x) within
// ‖q‖‖e_x‖ + ‖e_q‖‖x̃‖ + γ of the FP16 score, where γ covers f16.Dot's
// float32 rounding (γ_m·‖q‖(‖x̃‖+‖e_x‖) with m = dim+8 and
// γ_m = m·2⁻²⁴/(1−m·2⁻²⁴), plus m·2⁻¹⁴⁹ for underflow). Only the rows
// whose upper bound reaches the segment's k-th largest lower bound are
// rescored in FP16, so results stay bit-identical to the reference scan.
// Non-finite rows are always rescored; non-finite or huge queries (norm
// past 2⁶⁴) and segments with no more rows than k take the plain scan.
//
// IVF-PQ searches skip decoding entirely: a per-query M×256 look-up table
// of sub-query·centroid dot products is built once, after which scoring a
// row is one table lookup and add per subspace (asymmetric distance
// computation). Its inverted-file layer (invFile, ivfpq.go) holds the
// coarse quantizer and its sizing, the probe count, the cell postings, and
// the probe-grouped batch scan that scans every probed cell once for all
// the queries probing it; the cell scorer is the PQ LUT kernel, with the
// residual shiftLUT under residual encoding.
//
// Index.SearchBatch is the multi-query entry point every family
// implements: each FP16 row group (or, for IVF-PQ, each probed cell) is
// scored against the whole query batch while it is in cache, so the codes
// are streamed once per batch. A single-query search is the same loop over
// a one-query batch; IVFPQ answers Search through SearchBatch itself.
// BatchSearchTimed is the same call reporting its scan/merge split.
//
// Scores are bit-for-bit identical to the reference scalar scans (one row,
// one f16.Dot at a time; for IVF-PQ, one LUT row-sum at a time):
// binary16→float32 conversion is exact, the accumulation trees match, and
// top-k selection uses the total order (score descending, id ascending, a
// NaN below every number), making push order, segment merges and the
// first pass's pruning irrelevant. parity_test.go, firstpass_test.go and
// ivfpq_test.go pin this down.
//
// All indexes are safe for concurrent Search after construction; Add is not
// concurrent with Search.
package vecstore
