#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given:
#
#   bash bench/run.sh                                   # all four workloads
#   bash bench/run.sh --workload serve_lookup --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root (the directory that holds BENCHMARK.json).
# Everything the build and the run write stays inside that directory: the
# binary and Go's build cache under .bench_build/, the corpus, span files
# and results under bench/out/. Both are listed in .gitignore.
set -euo pipefail

if [ ! -f BENCHMARK.json ] || [ ! -f bench/go.mod ]; then
    echo "bench/run.sh: run from the repository root" >&2
    exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
# bench/ is a module of its own (paradise/bench) that replaces paradise with
# the parent directory, so the build fails, as it should, where the product's
# source is missing.
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
