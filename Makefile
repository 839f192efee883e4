# Repro build/verify entry points. `make verify` is the tier-1 gate
# (format, build, vet, lint, docs checks, tests); `make bench` runs the
# FP16 dot kernels and the vecstore scan benchmarks that track the
# contiguous-scan, eight-row and IVF-PQ LUT speedups, plus the build/evaluate
# hot-path benchmarks (token counting, prompt plan fit, coalescer and
# gateway call cost, the Table 2 matrix).
# End-to-end performance numbers come from ragbench, not from here:
# `bash benchmarks/run.sh` (see benchmarks/README.md).

GO ?= go

.PHONY: verify bench bench-all docs fmt lint purego race fuzz-smoke reach

verify:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) build ./...
	$(MAKE) docs
	$(MAKE) lint
	$(GO) test ./...
	$(MAKE) purego
	$(MAKE) fuzz-smoke
	$(MAKE) race

# Race gate for the concurrency-heavy packages: the multi-store serving
# layer (coalescers, per-route caches, hot swap under load — including
# TestSwapSearchRaceConsistency's swap/search hammering and the live
# ingest Add+Search+compact hammer), the mutable vecstore layer
# (memtable + Live rotation), the router's scatter/gather + breaker +
# health prober (and TestServedGoldenMatrix, the whole golden exam served
# through a router over three shards, ~25 s under -race), the gateways (both coalescer dispatch branches under the
# Close-vs-enqueue hammer), the parallel pipeline (pipeline.For, the one
# parallel loop, and Map/ForEach on it) and every stage that fans out
# through For (spdf's ParseAll, chunk's SplitAll, embed's Pool, vecstore's
# batch searches and training), the observability layer (metrics registry
# snapshots under writer load, trace/slowlog concurrent appends), and the
# build and evaluation paths' cross-goroutine state: the chunks and
# knowledge base the teacher reads on the build's own generation workers,
# one chunk each, with no gateway goroutine and no shared question slots
# (core); each condition's prompt plans and hit grades, read by every
# cell running in parallel, one Student shared by its model's cells and
# the one Judge shared by all (eval, core); the process-wide
# ability-calibration memo (llmsim), and the encoder's process-wide projection-pattern table and
# word memo, filled lock-free by every goroutine that embeds (embed's Pool,
# chunk's parallel SplitAll, and the store builds, which encode straight
# into one FP16 block), with memo slots replaced under concurrent readers
# (TestWordMemoConcurrentReplace).
race:
	$(GO) test -race ./internal/serve ./internal/router ./internal/batch ./internal/argo ./internal/pipeline ./internal/rag ./internal/vecstore ./internal/metrics ./internal/obs ./internal/eval ./internal/core ./internal/llmsim ./internal/embed ./internal/chunk ./internal/spdf

# The portable kernels: the purego build tag swaps f16.DotRows's F16C
# assembly for f16.Dot per row and f16.DotI8Rows's AVX2 int8 assembly for a
# plain Go loop, so the fallbacks that non-amd64 hosts run stay tested on
# amd64 too (f16's tests and vecstore's scans, the int8 first pass
# included).
purego:
	$(GO) test -tags purego ./internal/f16 ./internal/vecstore

# Short native-fuzz passes: the VSF loader's magic dispatch and header
# parsing (FuzzLoad; the checked-in corpus under testdata/fuzz pins the
# historical crashers — truncations, count/dim/keylen bombs — on every
# run), f16.DotRows against f16.Dot bit for bit on fuzzed codes,
# dimensions, row counts and unaligned row starts, and the int8 first pass
# (f16.DotI8Rows, the bound and the FP16 rerank) against the reference scan
# on fuzzed codes, dims, k and batch sizes (FuzzFirstPassMatchesReference:
# ids and score bits equal). -fuzzminimizetime caps
# the minimisation of each new input at 100 runs: at Go's default (60 s)
# the first new input FuzzLoad finds is minimised for the rest of the 10 s,
# and the log reads "0/sec" from about 3 s on.
fuzz-smoke:
	$(GO) test ./internal/vecstore -run '^$$' -fuzz 'FuzzLoad' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/f16 -run '^$$' -fuzz 'FuzzDotRowsMatchesDot' -fuzztime 10s -fuzzminimizetime 100x
	$(GO) test ./internal/vecstore -run '^$$' -fuzz 'FuzzFirstPassMatchesReference' -fuzztime 10s -fuzzminimizetime 100x

# Documentation gate: vet, a package-comment check — every internal
# package must open with a `// Package <name> ...` comment somewhere in
# its files so `go doc` output stays useful (most keep it in doc.go) — and
# a stale-reference check: every `make <target>` that README.md, docs/*.md
# or an internal/*/doc.go mentions must be a target of this Makefile, so
# deleting a target cannot leave the docs pointing at it.
docs:
	$(GO) vet ./...
	@missing=""; \
	for d in internal/*/; do \
		pkg="$$(basename $$d)"; \
		if ! grep -qls "^// Package $$pkg" $$d*.go; then \
			missing="$$missing $$pkg"; \
		fi; \
	done; \
	if [ -n "$$missing" ]; then \
		echo "missing package comment in:$$missing"; exit 1; \
	fi
	@targets=" $$(sed -n 's/^\([a-z][a-z-]*\):.*/\1/p' Makefile | tr '\n' ' ')"; \
	stale="$$(grep -no '`make [a-z][a-z-]*' README.md docs/*.md internal/*/doc.go | while IFS= read -r hit; do \
		case "$$targets" in *" $${hit##*make } "*) ;; *) echo "  $$hit\`";; esac; \
	done)"; \
	if [ -n "$$stale" ]; then \
		echo "docs mention make targets the Makefile does not have:"; echo "$$stale"; exit 1; \
	fi
	@echo "docs checks passed"

# Project-specific static analysis: raglint encodes the repo's
# concurrency and robustness invariants (ctx-abortable sleeps, ctx-ful
# HTTP, no blocking under locks, nil-Trace contract, header-bounded
# allocations, stage-name taxonomy, %w wrapping) as seven analyzers
# built on go/ast + go/types only, over the files the compiler builds
# for this target. Exits non-zero on any finding, a type-check error
# included; suppress a deliberate violation with `//lint:ignore
# <analyzer> <reason>`. See internal/lint/doc.go and docs/ARCHITECTURE.md.
lint:
	$(GO) run ./cmd/raglint

# Kernel benchmarks: f16.Dot vs f16.DotRows (ns per row, one row per call
# vs eight per pass) and the int8 first-pass kernel f16.DotI8Rows
# (BenchmarkDotI8Rows384, ns per row over a 64-row tile); ns/vector and
# bytes/vector for the contiguous blocked scan through the first pass
# (parallel and serial), the IVF-PQ LUT scans (raw and
# residual), and the multi-query batch kernels at the serving shape
# (batch of 2) and at 64;
# then the build/evaluate hot path:
# BenchmarkCountTokens (must report 0 allocs/op), BenchmarkEncode (ns and
# allocs per text through the word memo, one sentence repeated, so every
# word hits) and BenchmarkEncodeCorpus (the distinct chunk texts of a tiny
# generated corpus: the memo's hit rate on real vocabulary), BenchmarkSplit,
# BenchmarkPromptPlanFit vs BenchmarkAssemblePrompt, BenchmarkDoFastFunc and
# BenchmarkGatewayCallFastHandler (two closed-loop callers, ns per call),
# BenchmarkEvaluateSynthetic (the Table 2 matrix) and BenchmarkBuildBenchmark
# (one scale-0.01 build on two workers: the build half of ragbench's
# mcqa_build, allocations included).
bench:
	$(GO) test ./internal/f16 ./internal/vecstore -run '^$$' -bench . -benchmem
	$(GO) test ./internal/tokenizer ./internal/embed ./internal/chunk ./internal/rag ./internal/batch ./internal/argo ./internal/eval ./internal/core -run '^$$' -bench . -benchmem

# Reachability listing: the internal/ functions that no binary (cmd/,
# examples/, ragbench) links, with their line counts and the total. A
# function only tests call is listed. Informational: it gates nothing.
reach:
	bash tools/reach.sh

# Full paper-artifact bench suite (Tables 2-4, Figures 4-6, ablations).
bench-all:
	$(GO) test . -run '^$$' -bench . -benchmem

fmt:
	gofmt -w .
