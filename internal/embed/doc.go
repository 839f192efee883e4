// Package embed implements the text-embedding substrate that stands in for
// PubMedBERT in the paper's pipeline.
//
// The encoder is a deterministic feature-hashing model: each word
// contributes its surface form plus character n-grams to a sparse
// bag-of-features vector in a 2^18-dimensional hashed space, which is then
// projected to a dense d-dimensional embedding with a seeded sparse random
// projection and L2-normalised. Like a real sentence encoder, texts sharing
// vocabulary and morphology land near each other under cosine similarity;
// unlike one, it is reproducible offline with no model weights.
//
// Each hashed feature's projection pattern (projPerFeat signed columns
// drawn from the feature's own PRNG) is derived once per process and
// memoised in a lock-free table shared by every encoder with the same
// (dim, seed): 8 MB of virtual memory, touched only where features occur.
// Beside it sits a word memo: 4096 direct-mapped slots, each an atomic
// pointer to an immutable entry holding one word and the packed entries
// of its word feature and then of each character n-gram, in the order the
// table path adds them. A hit replays them as sign·(2·weight) and
// sign·(weight·0.5) — the same products, added to the same elements in the
// same order, so every vector is bit-identical by construction. Words over
// 32 bytes are never stored and take the table path, and an entry keeps a
// copy of its word rather than the text it came from, so the memo's
// worst-case memory is a constant however much novel text ragserve or the
// router is sent: 4096 slots × at most about 1.2 KB (33 patterns of 32
// bytes, the word and the entry) ≈ 5 MB per (dim, seed), on top of the
// table's 8 MB.
//
// Features are hashed in place (n-grams as byte ranges of the padded word,
// bigrams incrementally through rng.HashAdd), so encoding a text allocates
// only its word list, a sorted copy of it and any lowercased words, plus
// one entry per word the memo misses. The memos and the in-place hashing
// change no bit of any vector: a test-only copy of the unmemoised encoder
// is the parity oracle (TestEncodeMatchesReference, FuzzEncodeParity, and
// for the word memo TestWordMemoCollisions and
// TestWordMemoConcurrentReplace; TestWordMemoBound pins its bound).
//
// The package also provides a parallel batch encoder (Pool) mirroring the
// paper's HPC embedding stage, which encoded 173,318 chunks on ALCF nodes,
// and an IDF-weighting hook so common tokens contribute less to the hashed
// features. Encoded vectors are unit-norm float32 slices ready for any
// vecstore index (which stores them as FP16 or quantized codes);
// Pool.EncodeF16Into writes a batch straight into one FP16 code block, the
// layout a Flat index is built around.
package embed
