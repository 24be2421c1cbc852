#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build nfbench from
# source inside the checkout, then run one workload in the driver's form:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Nothing is read or written outside the checkout: the Go build cache, the
# go command's own config directory and the binary live under
# $CARGO_TARGET_DIR (the driver sets it to .bench_build), run outputs under
# bench/out. The first run in a checkout builds; later runs find the cache
# warm.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

# XDG_CONFIG_HOME: the go command keeps its telemetry counters and its env
# file under the user's config directory.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw

cd "$root"
go build -C bench -o "$build/nfbench" ./nfbench
exec "$build/nfbench" "$@"
