#!/usr/bin/env bash
# Builds the benchmark driver from source and runs it with the given
# arguments. Everything the build writes stays inside the checkout, under
# .bench_build/ (the Go build cache included), so a run touches nothing
# outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd "$root/bench" && go build -o "$build/marl-bench" .) >&2
cd "$root"
exec "$build/marl-bench" "$@"
