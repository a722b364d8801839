#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. `bash perfbench/run.sh --workload small --seed 1 --seconds 10 --trace 0`.
# Run it from the repository root: the build, its Go caches and the run's
# scratch files all stay under .bench_build/ there.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS="" GOENV=off

# Build output goes to stderr: the result line must stay the last line of
# standard output.
go -C "$root/perfbench" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
