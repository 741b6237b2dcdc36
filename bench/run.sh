#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source and
# runs it. Every Go cache lives under .bench_build/ so a run reads and
# writes only inside the checkout; the harness itself builds cmd/adserve
# with the same environment.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache"
export GOMODCACHE="$root/.bench_build/gomod"
export GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$root/.bench_build/adserve-bench" .
exec "$root/.bench_build/adserve-bench" -root "$root" "$@"
