#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it with
# the arguments given, e.g.
#
#   bash perfbench/run.sh --workload online --seed 1 --seconds 15 --trace 0
#
# Run it from the root of the repository. Every file the Go toolchain or the
# harness writes lands under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
(cd "$root/perfbench" && go build -trimpath -buildvcs=false -o "$build/perfbench" -ldflags "-X main.commit=$commit" .)
exec "$build/perfbench" -out "$build/reports" "$@"
