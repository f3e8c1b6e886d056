#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given (see BENCHMARK.json and README.md). Everything the
# Go toolchain writes — build cache, temporary files, the binary — goes
# under .bench_build/ at the checkout's root; nothing outside the
# checkout is written. Fails, printing no result, when the repository's
# sources are not there to build against.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$build/benchmark" .)
cd "$root"
exec "$build/benchmark" "$@"
