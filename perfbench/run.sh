#!/usr/bin/env bash
# Builds the fleet benchmark from the checkout's sources and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 10 --trace 0
# Everything it builds or writes stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build) of the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/go-cache
export GOPATH=$build/go-path
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -workdir "$build/perfbench-work" "$@"
