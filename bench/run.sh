#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json "command"): builds
# ./bench from the checkout it is run in and runs it with the given flags.
# Everything written, the Go build cache included, stays under .bench_build
# in that checkout. In a directory without the repository's go.mod the build
# fails and so does this script.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/gpf-bench" ./bench
exec "$build/gpf-bench" "$@"
