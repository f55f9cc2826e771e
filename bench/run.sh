#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root. The binary, the Go build cache and Go's
# temporary files all go under .bench_build/ in the checkout, so nothing is
# read or written outside it.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -C "$root/bench" -o "$build/bench" . >&2
exec "$build/bench" "$@"
