#!/usr/bin/env bash
# Builds thinnerd and perfbench from the working tree, then runs one
# benchmark run. Run it from the repository root:
#
#   bash perfbench/run.sh --workload churn-wire --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binaries, span files)
# stays under .bench_build/ in the repository root.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/thinnerd" ./cmd/thinnerd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
