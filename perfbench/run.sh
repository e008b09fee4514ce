#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it
# with the given arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload monitor --seed 1 --seconds 20 --trace 0
#
# Every build artefact (compiler cache, temporary files, the binary)
# stays under .bench_build/ in the checkout, and the toolchain is
# pinned to the local one with the module proxy off, so a run never
# reaches the network.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
