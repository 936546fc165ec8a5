#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload warm --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Everything the build and the run
# write stays under the build directory ($CARGO_TARGET_DIR when set,
# .bench_build otherwise): the Go build cache, the binary, span files and
# the serve-churn WAL. The benchmark module imports the engine from the
# checkout (perfbench/go.mod replaces kgaq with ../), so outside a full
# checkout the build fails and nothing is printed.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export GOTMPDIR="$build"
export XDG_CONFIG_HOME="$build/config"
export GOWORK=off GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
