#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload paper-fig67 --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh                 # every workload, one child process each
#   bash bench/run.sh -layers         # the traced per-layer run
#
# Everything the build writes (Go build cache, temp files, the binary)
# stays under .bench_build/ at the repository root; the benchmark needs no
# network and no module downloads.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$root/bench" && go build -o "$out/uvmbench" .)
cd "$root"
exec "$out/uvmbench" "$@"
