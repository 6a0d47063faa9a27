#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload table1-lenet --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# stays under .bench_build at the checkout root; nothing is downloaded.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="${root}/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
