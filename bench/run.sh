#!/usr/bin/env bash
# Builds the benchmark program from the sources of the checkout this script
# sits in and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload paper-lp --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, temporary
# files, telemetry and the binary) goes to .bench_build/ at the checkout
# root, and the toolchain is kept offline.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

cd "$root"
(cd bench && go build -o "$out/lpbench-perf" .)
exec "$out/lpbench-perf" "$@"
