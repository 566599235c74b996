#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from
# the repository root:
#
#   bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays in .bench_build at the
# repository root (build cache included); nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C "$root/benchmark" -o "$out/crashsim-bench" .
exec "$out/crashsim-bench" "$@"
