GO ?= go
BENCH_COUNT ?= 3

.PHONY: check fmt vet build test race bench bench-json chaos fuzz

check: fmt vet build race bench chaos fuzz

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Seeded chaos soak (the selection and what it covers are listed in
# scripts/lists.sh), run twice under the race detector. Deterministic —
# a failure here is a real regression, not flakiness.
chaos:
	. ./scripts/lists.sh && $(GO) test -race -count=2 -run "$$CHAOS_LIST" $$CHAOS_PKG_LIST

# Bounded fuzzing of the serialised-ensemble decoder and the SSE client
# reader, seeded from the testdata/fuzz corpora next to each target.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzLoad$$' -fuzztime=10s ./internal/sgbrt/
	$(GO) test -run='^$$' -fuzz='^FuzzReadEvent$$' -fuzztime=10s ./pkg/client/

# Short allocation-aware sweep over the hot-path micro-benchmarks
# listed in scripts/lists.sh.
bench:
	. ./scripts/lists.sh && $(GO) test -run='^$$' -bench="$$BENCH_LIST" -benchtime=1x -benchmem $$BENCH_PKG_LIST

# Same sweep, repeated BENCH_COUNT times and written to an
# auto-numbered machine-readable BENCH_<n>.json report.
bench-json:
	./scripts/bench.sh $(BENCH_COUNT)
