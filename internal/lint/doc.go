// Package lint is raglint: a stdlib-only static-analysis suite (a small
// driver over go/parser, go/ast and go/types — no external dependencies,
// consistent with the module's zero-dependency stance) whose analyzers
// encode the repo's hard-earned concurrency and robustness invariants as
// structural rules, so a refactor cannot silently reintroduce a bug class
// that was already fixed once.
//
// Each analyzer pins one historical incident:
//
//	nosleep    bare time.Sleep in non-test code must go through the
//	           ctx-abortable retry.Sleep — the argo gateway's
//	           Close-vs-backoff hang (that retry path has since gone;
//	           the router's shard retry sleeps through retry.Sleep).
//	ctxhttp    outbound requests must be built with
//	           http.NewRequestWithContext so router→shard deadlines
//	           propagate end to end.
//	lockheld   no channel operations, sleeps or network calls while a
//	           mutex is held — the coalescer/swap/writeMu discipline.
//	nilrecv    every exported pointer-receiver method on obs.Trace opens
//	           with a nil guard (the "untraced paths pay one nil check"
//	           contract).
//	allocbound in vecstore persist/load code, make() sizes derived from
//	           decoded header integers must be validated before the
//	           allocation — the VSF header-bomb class FuzzLoad hunts
//	           dynamically.
//	stagenames stage/metric name literals passed to obs traces and
//	           metrics histograms, and the names in Stage literals (the
//	           rag.Stage a store reports its stages in), must belong to
//	           the closed stage taxonomy (stageTaxonomy in contracts.go,
//	           its one owner).
//	errwrap    fmt.Errorf with an error operand must use %w so callers
//	           can errors.Is/As through the wrap.
//
// The driver (cmd/raglint, `make lint`) loads every package of the
// module from the files the compiler builds for the default target
// (//go:build lines and _GOOS/_GOARCH suffixes are honoured, so a
// build-tagged twin is never checked beside its original), type-checks
// it (module-internal imports are resolved from source by the loader
// itself; standard-library imports through one go/importer source
// importer shared by every load in the process), runs the analyzers over the typed ASTs and prints one
// "file:line: analyzer: message" diagnostic per finding, exiting non-zero
// if any survive suppression. A type-check error is a finding of its own,
// "typecheck", that no directive suppresses. A finding is suppressed by
// a directive on the same line or the line directly above:
//
//	//lint:ignore <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself reported.
// Analyzers are deliberately heuristic where full soundness would need
// whole-program analysis (lockheld and allocbound are per-function,
// source-ordered approximations) — they are tuned to the idioms this
// repo actually uses, and their fixtures under testdata/ are the
// contract for what each one catches.
package lint
