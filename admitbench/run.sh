#!/usr/bin/env bash
# Builds the admission benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash admitbench/run.sh --workload sharded-replicated --seed 1 --seconds 40 --trace 0
#
# Everything the build writes (the Go build cache, temporary files and
# the binary) stays under .bench_build in the working directory.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "admitbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod

(cd "$root/admitbench" && go build -o "$build/admitbench" .)
exec "$build/admitbench" "$@"
