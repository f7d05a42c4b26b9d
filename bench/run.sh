#!/bin/bash
# Builds the benchmark from source into .bench_build/ (the Go build cache
# lives there too, so nothing is written outside the checkout) and runs it.
# All arguments go to the program; see bench/README.md.
set -eu
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOTOOLCHAIN=local
go -C bench build -o "$build/itv-perfbench" . >&2
exec "$build/itv-perfbench" "$@"
