#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through (see bench/README.md). The Go build cache
# and temporary files stay under .bench_build in the checkout (or under
# CARGO_TARGET_DIR when set), and the toolchain never goes to the network:
# the module has no dependencies outside the standard library.
set -euo pipefail
cache="${CARGO_TARGET_DIR:-.bench_build}"
case "$cache" in /*) ;; *) cache="$(pwd)/$cache" ;; esac
export GOCACHE="$cache/gocache" GOTMPDIR="$cache/tmp" GOPATH="$cache/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
mkdir -p "$GOTMPDIR"
go -C bench build -o "$cache/bench" .
exec "$cache/bench" "$@"
