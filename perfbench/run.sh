#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload sweep --seed 1 --seconds 35 --trace 0
#
# Build outputs, the Go build cache included, stay in .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
