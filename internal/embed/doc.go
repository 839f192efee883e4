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
// Features are hashed in place (n-grams as byte ranges of the padded word,
// bigrams incrementally through rng.HashAdd), so encoding a text allocates
// only its word list, a sorted copy of it and any lowercased words. The
// memo and the in-place hashing change no bit of any vector: a test-only
// copy of the unmemoised encoder is the parity oracle
// (TestEncodeMatchesReference, FuzzEncodeParity).
//
// The package also provides a parallel batch encoder (Pool) mirroring the
// paper's HPC embedding stage, which encoded 173,318 chunks on ALCF nodes,
// and an IDF-weighting hook so common tokens contribute less to the hashed
// features. Encoded vectors are unit-norm float32 slices ready for any
// vecstore index (which stores them as FP16 or quantized codes).
package embed
