#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash _bench/run.sh --workload trace-diurnal --seed 2023 --seconds 20 --trace 0
#
# Everything the build and the runs write stays in .bench_build at the
# repository root: the Go build cache, the binary, profiles and results.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -root "$root" "$@"
