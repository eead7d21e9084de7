#!/bin/sh
# Full pre-commit gate: formatting, vet, build, race-enabled tests, the
# chaos soak, bounded fuzzing, and a short allocation-aware pass over
# the hot-path micro-benchmarks.
# Equivalent to `make check` for environments without make.
set -eu

cd "$(dirname "$0")/.."
. ./scripts/lists.sh

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== client library and examples =="
go build ./pkg/client/ ./examples/...

echo "== go test -race =="
go test -race ./...

echo "== chaos soak (seeded fault-injection + cancellation + overload + batch + store + cluster + cleaner + fingerprint + stream sweep) =="
# shellcheck disable=SC2086 # CHAOS_PKG_LIST is a deliberate word list
go test -race -count=2 -run "$CHAOS_LIST" $CHAOS_PKG_LIST

echo "== fuzz sgbrt.Load (bounded) =="
go test -run='^$' -fuzz='^FuzzLoad$' -fuzztime=10s ./internal/sgbrt/

echo "== short benchmarks =="
# shellcheck disable=SC2086 # BENCH_PKG_LIST is a deliberate word list
go test -run='^$' -bench="$BENCH_LIST" -benchtime=1x -benchmem $BENCH_PKG_LIST

echo "check OK"
