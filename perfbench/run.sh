#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root:  bash perfbench/run.sh --workload clean-mem --seed 1 --seconds 30 --trace 0
# Everything the build and the run leave behind goes under .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
