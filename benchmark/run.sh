#!/bin/sh
# Builds the benchmark from source into .bench_build/ (Go build cache
# included, so nothing is written outside the checkout) and runs it with
# the given arguments. Run from the repository root.
set -eu
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/go-cache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/centaur-benchmark" .
exec "$root/.bench_build/centaur-benchmark" "$@"
