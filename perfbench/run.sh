#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload study-grid --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the Go toolchain writes (build
# cache, binary, module cache) stays under .bench_build in the checkout.
# A checkout without the module sources fails the build, so the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

# Build output goes to stderr: the last line of stdout is the result.
(cd "$root/perfbench" && go build -o "$build/perfbench" .) 1>&2
exec "$build/perfbench" "$@"
