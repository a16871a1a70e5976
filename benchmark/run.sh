#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# (build cache, temp files, the binary) stays under .bench_build/ in the
# checkout, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/gotmp"
export XDG_CONFIG_HOME="$build/config" # the go command keeps telemetry counters there
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
cd "$here"
go build -o "$build/easybo-bench" .
exec "$build/easybo-bench" "$@"
