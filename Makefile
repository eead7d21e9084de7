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

# Bounded fuzzing of every target listed in scripts/lists.sh, seeded
# from the testdata/fuzz corpora next to each target.
fuzz:
	. ./scripts/lists.sh && for pair in $$FUZZ_LIST; do \
		$(GO) test -run='^$$' -fuzz="^$${pair#*:}\$$" -fuzztime=10s "$${pair%%:*}" || exit 1; \
	done

# Short allocation-aware sweep over the hot-path micro-benchmarks
# listed in scripts/lists.sh.
bench:
	. ./scripts/lists.sh && $(GO) test -run='^$$' -bench="$$BENCH_LIST" -benchtime=1x -benchmem $$BENCH_PKG_LIST

# Same sweep, repeated BENCH_COUNT times and written to an
# auto-numbered machine-readable BENCH_<n>.json report.
bench-json:
	./scripts/bench.sh $(BENCH_COUNT)
