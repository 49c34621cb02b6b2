#!/usr/bin/env bash
# Builds the eventlens benchmark from the checkout's sources and runs it with
# the given arguments. Run it from the repository root, for example:
#
#   bash eventbench/run.sh --workload cold-flops --seed 1 --seconds 20 --trace 0
#
# Every build and cache file stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C "$root/eventbench" build -o "$build/eventbench" .
exec "$build/eventbench" "$@"
