#!/usr/bin/env bash
# Builds the cluster benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#	bash clusterbench/run.sh --workload fastraft-write --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# directories, span dumps) stays under .bench_build in the repository root.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/go-cache"
export GOMODCACHE="$build/go-mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$src" && go build -o "$build/clusterbench" .) >&2
exec "$build/clusterbench" -data "$build/data" "$@"
