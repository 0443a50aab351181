#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload scan-single --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build and run artifact stays
# under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --dir "$build" "$@"
