#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash hostbench/run.sh --workload long-soc --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Everything the build and the
# benchmark write stays under .bench_build/ there.
set -euo pipefail
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
  GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOTELEMETRY=off \
  XDG_CONFIG_HOME="$build/config"
go -C "$root/hostbench" build -o "$build/hostbench" .
exec "$build/hostbench" "$@"
