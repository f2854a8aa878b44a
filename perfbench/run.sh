#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Run from
# the root of the repository:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 25 --trace 0
#
# Every build and run artefact stays inside the checkout: the Go build
# cache, module cache and tool config go under .bench_build/, spans and
# reports under .bench_out/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
