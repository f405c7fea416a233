#!/usr/bin/env bash
# Entry point for the acceptance driver (see BENCHMARK.json): build the
# benchmark from source inside the checkout, then run it with the
# driver's arguments. Everything the go tool writes — build cache,
# temporary files, telemetry counters, binaries — is kept under
# .bench_build in the checkout, so a run writes nothing outside it, and
# the network is never tried (the module needs nothing from it).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -C bench -o "$build/bin/sglbench" .
exec "$build/bin/sglbench" "$@"
