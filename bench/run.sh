#!/usr/bin/env bash
# Builds the benchmark and runs it: the BENCHMARK.json command.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Everything the build and the run
# write — Go's build cache included — stays under .bench_build/ and
# bench/out/ in that checkout. Outside a checkout (no go.mod, no cmd/)
# the build fails and nothing is printed on stdout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath" # the module has no dependencies; nothing lands here
export GOTOOLCHAIN=local

# Both binaries are built before any timer starts; with a warm cache
# each build is a fraction of a second. bench builds cmd/discoverynode
# itself (see main.go), into the same directory.
go build -o "$build/bench" ./bench >&2
exec "$build/bench" -build-dir "$build" "$@"
