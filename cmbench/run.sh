#!/usr/bin/env bash
# Builds counterminerd and the benchmark from the checkout's sources,
# then runs one benchmark workload. Run from the repository root:
#
#   bash cmbench/run.sh --workload serve-distinct --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config directory
# and, unless telemetry is off there, forks a detached uploader process that
# outlives the build. Turn it off so the run leaves no process behind.
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go build -o "$out/bin/counterminerd" ./cmd/counterminerd
(cd cmbench && go build -o "$out/bin/cmbench" .)
exec "$out/bin/cmbench" -daemon "$out/bin/counterminerd" -work "$out/run" "$@"
