#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it; the
# arguments go to the binary unchanged. Everything the Go toolchain
# writes (build cache, binary) stays under .bench_build at the root of
# the checkout, which is also where a --trace run leaves its spans.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C "$here" -o "$build/benchmark" .
cd "$root"
exec "$build/benchmark" "$@"
