#!/usr/bin/env bash
# Builds the schedd benchmark from the checkout it sits in and runs it
# with the given arguments. Run from the repository root:
#
#   bash schedbench/run.sh --workload plan --seed 1 --seconds 12 --trace 0
#
# Build cache, binary, traces and the per-run results log all live in
# .bench_build/ at the root, so nothing outside the checkout is written.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/schedbench" && go build -o "$build/schedbench" .)
exec "$build/schedbench" -out "$build" "$@"
