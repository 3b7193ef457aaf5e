#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#
#   bash perfbench/run.sh --workload topk-serial --seed 1 --seconds 10 --trace 0
#
# Build caches, temporary files and the binary stay under .bench_build in
# the working directory. A tree without the program's sources fails the
# build, and with it the run.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
