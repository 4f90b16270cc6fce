#!/usr/bin/env bash
# Builds the benchmark and the achilles-worker binary from source, then runs
# the benchmark with the given arguments, from the repository root:
#
#   bash bench/run.sh --workload fleet --seed 1 --seconds 25 --trace 0
#   bash bench/run.sh compare A.jsonl B.jsonl
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the repository root. Without the repository's sources next to bench/ the
# build fails and the script exits non-zero before printing any result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off TMPDIR="$build/tmp"

cd "$root"
go build -o "$build/achilles-worker" ./cmd/achilles-worker
(cd bench && go build -o "$build/achilles-bench" .)
exec "$build/achilles-bench" "$@"
