# Repro build/verify entry points. `make verify` is the tier-1 gate
# (format, build, vet, lint, docs checks, tests); `make bench` runs the
# FP16 dot kernels and the vecstore scan benchmarks that track the
# contiguous-scan, paired-row and PQ-LUT speedups, plus the build/evaluate
# hot-path benchmarks (token counting, prompt plan fit, coalescer and
# gateway call cost, the Table 2 matrix).
# End-to-end performance numbers come from ragbench, not from here:
# `bash benchmarks/run.sh` (see benchmarks/README.md).

GO ?= go

.PHONY: verify bench bench-all docs fmt lint race fuzz-smoke

verify:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) build ./...
	$(MAKE) docs
	$(MAKE) lint
	$(GO) test ./...
	$(MAKE) fuzz-smoke
	$(MAKE) race

# Race gate for the concurrency-heavy packages: the multi-store serving
# layer (coalescers, per-route caches, hot swap under load — including
# TestSwapSearchRaceConsistency's swap/search hammering and the live
# ingest Add+Search+compact hammer), the mutable vecstore layer
# (memtable + Live rotation), the router's scatter/gather + breaker +
# health prober, the gateways (both coalescer dispatch branches under the
# Close-vs-enqueue hammer), the parallel pipeline, the observability layer
# (metrics registry snapshots under writer load, trace/slowlog concurrent
# appends), and the evaluation path's cross-goroutine state: prompt plans
# shared by every model's workers (eval, core), the process-wide
# ability-calibration memo (llmsim), and the encoder's process-wide
# projection-pattern table, filled lock-free by every goroutine that embeds
# (embed's Pool, and chunk's parallel SplitAll).
race:
	$(GO) test -race ./internal/serve ./internal/router ./internal/batch ./internal/argo ./internal/pipeline ./internal/rag ./internal/vecstore ./internal/metrics ./internal/obs ./internal/eval ./internal/core ./internal/llmsim ./internal/embed ./internal/chunk

# Short native-fuzz pass over the VSF loader's magic dispatch and header
# parsing (FuzzLoad); the checked-in corpus under testdata/fuzz pins the
# historical crashers (truncations, count/dim/keylen bombs) on every run.
fuzz-smoke:
	$(GO) test ./internal/vecstore -run '^$$' -fuzz 'FuzzLoad' -fuzztime 10s

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
# built on go/ast + go/types only. Exits non-zero on any finding;
# suppress a deliberate violation with `//lint:ignore <analyzer>
# <reason>`. See internal/lint/doc.go and docs/ARCHITECTURE.md.
lint:
	$(GO) run ./cmd/raglint

# Kernel benchmarks: f16.Dot vs f16.Dot2 (one row vs a pair per call);
# ns/vector and bytes/vector for the contiguous blocked scan vs the frozen
# jagged baseline, the PQ/IVF-PQ LUT scans, and the multi-query batch
# kernels at the serving shape (batch of 2) and at 64; then the
# build/evaluate hot path:
# BenchmarkCountTokens (must report 0 allocs/op), BenchmarkEncode (ns and
# allocs per text through the memoised projection), BenchmarkSplit,
# BenchmarkPromptPlanFit vs BenchmarkAssemblePrompt, BenchmarkDoFastFunc and
# BenchmarkGatewayCallFastHandler (two closed-loop callers, ns per call),
# BenchmarkEvaluateSynthetic.
bench:
	$(GO) test ./internal/f16 ./internal/vecstore -run '^$$' -bench . -benchmem
	$(GO) test ./internal/tokenizer ./internal/embed ./internal/chunk ./internal/rag ./internal/batch ./internal/argo ./internal/eval -run '^$$' -bench . -benchmem

# Full paper-artifact bench suite (Tables 2-4, Figures 4-6, ablations).
bench-all:
	$(GO) test . -run '^$$' -bench . -benchmem

fmt:
	gofmt -w .
