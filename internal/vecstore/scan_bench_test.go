package vecstore

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/rng"
)

// Kernel benchmarks for the BENCH trajectory. All report ns/vector (time
// per stored vector scanned, the layout-independent figure of merit) and
// allocations. benchN/benchDim match the acceptance config of the
// contiguous-layout rewrite: dim=384 (the PubMedBERT stand-in), n=100k
// (within 2× of the paper's 173k-chunk store).

const (
	benchDim = 384
	benchN   = 100_000
)

func buildBenchFlat(b *testing.B, n, dim int) (*Flat, [][]float32) {
	b.Helper()
	r := rng.New(1)
	ix := NewFlat(dim)
	for _, v := range randomUnit(r, n, dim) {
		ix.Add(v, "")
	}
	queries := randomUnit(r, 64, dim)
	return ix, queries
}

func BenchmarkFlatSearch(b *testing.B) {
	ix, queries := buildBenchFlat(b, benchN, benchDim)
	var dst []Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ix.SearchInto(queries[i%len(queries)], 10, dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(benchN), "ns/vector")
	reportBytesPerVector(b, ix)
}

// BenchmarkFlatSearchSerial pins the single-threaded kernel (row groups
// scored straight from the codes by f16.DotRows, no segment parallelism) by
// staying under the parallel threshold; ns/vector here isolates the kernel
// from the parallel win.
func BenchmarkFlatSearchSerial(b *testing.B) {
	n := segmentMinRows
	ix, queries := buildBenchFlat(b, n, benchDim)
	var dst []Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = ix.SearchInto(queries[i%len(queries)], 10, dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/vector")
}

func BenchmarkFlatSearchBatch(b *testing.B) {
	ix, queries := buildBenchFlat(b, benchN, benchDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.SearchBatch(queries, 10)
	}
	b.ReportMetric(
		float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(benchN)/float64(len(queries)),
		"ns/vector")
}

// BenchmarkFlatSearchBatch2 is the serving shape: a 7.5k-row Flat (the
// ragbench corpus) answering batches of 2, what the coalescer dispatches
// when two closed-loop clients miss the cache. ns/vector is per
// vector-query; compare with BenchmarkFlatSearchSerial for what a second
// query in the batch costs.
func BenchmarkFlatSearchBatch2(b *testing.B) {
	const n = 7500
	ix, queries := buildBenchFlat(b, n, benchDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := 2 * i % len(queries)
		_ = ix.SearchBatch(queries[j:j+2], 10)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n/2, "ns/vector")
}

// BenchmarkFlatBatchFanout is the query-level fan-out batches used before
// the multi-query kernel existed; compare with
// BenchmarkFlatSearchBatch for what scoring each row group against the whole
// batch buys.
func BenchmarkFlatBatchFanout(b *testing.B) {
	ix, queries := buildBenchFlat(b, benchN, benchDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := make([][]Result, len(queries))
		pipeline.For(len(queries), 0, func(qi int) {
			out[qi] = ix.SearchInto(queries[qi], 10, nil)
		})
	}
	b.ReportMetric(
		float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(benchN)/float64(len(queries)),
		"ns/vector")
}

// benchPQM is the PQ operating point of the acceptance config: 48
// subspaces of 8 dims → 48 bytes/vector, 1/16 of FP16's 768.
const benchPQM = 48

// reportBytesPerVector adds the storage figure of merit next to ns/vector
// so the recall/memory/QPS table in docs/ARCHITECTURE.md reads off one
// bench run.
func reportBytesPerVector(b *testing.B, ix Index) {
	b.Helper()
	b.ReportMetric(StatsOf(ix).BytesPerVector(), "bytes/vector")
}

// BenchmarkIVFPQSearch composes the coarse probe with PQ cells: ns/vector
// is per row actually scanned (n × nprobe/nlist), the figure to compare
// with BenchmarkFlatSearch's FP16 rows.
func BenchmarkIVFPQSearch(b *testing.B) {
	ix, queries, scanned := buildBenchIVFPQ(b, IVFPQConfig{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Search(queries[i%len(queries)], 10)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/scanned, "ns/vector")
	reportBytesPerVector(b, ix)
}

// buildBenchIVFPQ builds the IVF-PQ bench fixture at the acceptance
// operating point (nlist=256, nprobe=8, M=48) for one encoding variant.
func buildBenchIVFPQ(b *testing.B, cfg IVFPQConfig) (*IVFPQ, [][]float32, float64) {
	b.Helper()
	r := rng.New(1)
	cfg.Dim, cfg.NList, cfg.NProbe, cfg.M, cfg.Seed = benchDim, 256, 8, benchPQM, 1
	ix := NewIVFPQ(cfg)
	const n = 20_000
	for _, v := range randomUnit(r, n, benchDim) {
		ix.Add(v, "")
	}
	ix.Train()
	queries := randomUnit(r, 64, benchDim)
	scanned := float64(n) * float64(ix.NProbe()) / float64(ix.NList())
	return ix, queries, scanned
}

// BenchmarkIVFPQResidualSearch measures the residual-encoding LUT-cost
// trade-off: the same scan as BenchmarkIVFPQSearch plus one O(dim+M·ksub)
// LUT shift per probed cell. Compare ns/vector with BenchmarkIVFPQSearch
// for the per-cell overhead residual recall is bought with.
func BenchmarkIVFPQResidualSearch(b *testing.B) {
	ix, queries, scanned := buildBenchIVFPQ(b, IVFPQConfig{Residual: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.Search(queries[i%len(queries)], 10)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/scanned, "ns/vector")
	reportBytesPerVector(b, ix)
}

// BenchmarkIVFPQResidualSearchBatch amortises base-LUT construction across
// the batch; the per-(cell,query) shift is the remaining residual cost.
func BenchmarkIVFPQResidualSearchBatch(b *testing.B) {
	ix, queries, scanned := buildBenchIVFPQ(b, IVFPQConfig{Residual: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ix.SearchBatch(queries, 10)
	}
	b.ReportMetric(
		float64(b.Elapsed().Nanoseconds())/float64(b.N)/scanned/float64(len(queries)),
		"ns/vector")
}
