#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash benchmark/run.sh --workload sj-http --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it writes (Go build cache,
# binary, cached inputs, digests, traces) goes under .bench_build/, or under
# $CARGO_TARGET_DIR when that is set. Build output goes to stderr so the
# last line of stdout stays the benchmark's JSON result.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/go/cache" "$out/go/tmp" "$out/go/path" "$out/go/config"

# XDG_CONFIG_HOME keeps the go command's local telemetry and env file
# inside the build directory too.
export GOCACHE=$out/go/cache GOTMPDIR=$out/go/tmp GOPATH=$out/go/path XDG_CONFIG_HOME=$out/go/config
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/benchmark" && go build -o "$out/bin/retrasyn-bench" .) >&2
exec "$out/bin/retrasyn-bench" --state-dir "$out" "$@"
