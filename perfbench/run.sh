#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload tiga-micro --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the go command's own config
# (telemetry counters) stay under $CARGO_TARGET_DIR (default .bench_build),
# and the build never touches the network.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && HOME=$out/home XDG_CONFIG_HOME=$out/config go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
