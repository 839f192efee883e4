#!/usr/bin/env bash
# Builds ragbench from source into .bench_build/ (Go's build cache is kept
# there too, so nothing outside the checkout is written) and runs it with
# the given arguments. Run from the repository root:
#
#   bash benchmarks/run.sh --workload serve_miss --seed 1 --seconds 10 --trace 0
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}" GOPATH="${GOPATH:-$build/gopath}" GOTOOLCHAIN=local
go build -o "$build/ragbench" ./benchmarks/ragbench
exec "$build/ragbench" "$@"
