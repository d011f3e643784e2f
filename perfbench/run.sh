#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it there with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload rope_repeat --seed 1 --seconds 10 --trace 0
#
# Every file the build writes (binary, Go build cache, temporaries) stays
# under .bench_build/. Without the mediator's sources next to perfbench/
# the build fails and so does this script.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

go build -C "$root/perfbench" -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
