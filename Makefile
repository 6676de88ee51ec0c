# Standard entry points for the LEGO reproduction.

GO ?= go

.PHONY: all build vet lint lint-fixtures fmtcheck test test-short bench benchall fmt examples clean ci smoke race-shard chaos perfgate profile perfbench-test

all: build vet lint test

# Everything CI runs, in CI's order; keep .github/workflows/ci.yml in sync.
ci:
	$(GO) build ./...
	$(GO) vet ./...
	$(MAKE) fmtcheck
	$(MAKE) lint
	$(MAKE) lint-fixtures
	$(GO) test -race ./...
	$(MAKE) perfbench-test
	$(MAKE) race-shard
	$(MAKE) smoke
	$(MAKE) chaos
	$(MAKE) perfgate

# The sharded executor's schedule-independence gate, named so its failure is
# unambiguous: the determinism claims of internal/shard are only credible
# race-clean, since a data race between shards is exactly a scheduling
# dependence.
race-shard:
	$(GO) test -race -count=1 -run 'Sharded' ./internal/shard/ .

# perfbench/ is a Go module of its own, so the root `go test ./...` never
# compiles it; its tests keep the campaign benchmark building and running
# against the engine, core and harness APIs it imports.
perfbench-test:
	cd perfbench && $(GO) test ./...

# legolint statically enforces the campaign-determinism invariants (map
# iteration order, global math/rand, wall-clock reads, minidb panic
# discipline) and the cross-package contracts (sqlast switch exhaustiveness,
# memo invalidation, hotpath allocation, borrowed-buffer retention,
# immutable AST leaves).
# Suppress one finding with `//lego:allow <analyzer> — <reason>`; machine
# output: $(GO) vet -json -vettool=... ./...
lint:
	$(GO) build -o bin/legolint ./cmd/legolint
	$(GO) vet -vettool=$(abspath bin/legolint) ./...

# The analyzers' own test suites: every testdata fixture must produce
# exactly its expected `// want` diagnostics, and facts must survive the
# unitchecker round-trip.
lint-fixtures:
	$(GO) test ./internal/analysis/...

# gofmt cleanliness over the whole tree, fixtures included.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# End-to-end triage gate: a short campaign whose every bug must verify
# STABLE with a minimized reproducer — once single-threaded, once sharded.
smoke:
	$(GO) run ./cmd/legofuzz -target comdb2 -budget 20000 -triage -triage-assert
	$(GO) run ./cmd/legofuzz -target mariadb -budget 20000 -workers 4 -triage -triage-assert

# Chaos determinism gate: run the same supervised chaotic campaign twice and
# demand byte-identical checkpoints — injected worker panics, epoch retries,
# quarantine, and the incident journal must all be pure functions of
# (chaos-rate, chaos-seed).
chaos:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/legofuzz -target mariadb -budget 30000 -workers 4 \
		-epoch-stmts 500 -chaos-rate 0.05 -chaos-seed 7 -checkpoint "$$tmp/a.ckpt" && \
	$(GO) run ./cmd/legofuzz -target mariadb -budget 30000 -workers 4 \
		-epoch-stmts 500 -chaos-rate 0.05 -chaos-seed 7 -checkpoint "$$tmp/b.ckpt" && \
	cmp "$$tmp/a.ckpt" "$$tmp/b.ckpt" && \
	echo "chaos: double-run checkpoints byte-identical"

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# One benchmark per paper table/figure, at reduced budgets.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run xxx .

# Regenerate every table/figure at full scale (a few minutes).
benchall:
	$(GO) run ./cmd/benchall

# Throughput regression gate: a short perf snapshot must stay above 70% of
# the committed floor (the workers-1 row of BENCH_perf.json, rounded down).
# It runs in a scratch directory so the short-budget snapshot never
# clobbers the committed BENCH_perf.json / BENCH_history.jsonl — those are
# regenerated deliberately with `make benchall` runs from the repo root.
PERF_FLOOR ?= 198000
perfgate:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/benchall" ./cmd/benchall && \
	cd "$$tmp" && ./benchall -only perf -execs 50000 -perf-floor $(PERF_FLOOR)

# CPU + heap profile of a full-budget perf campaign; leaves cpu.prof and
# mem.prof in the repo root (gitignored). Inspect with `go tool pprof`.
profile:
	$(GO) build -o bin/benchall ./cmd/benchall
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	cd "$$tmp" && $(abspath bin/benchall) -only perf \
		-cpuprofile cpu.prof -memprofile mem.prof && \
	cp cpu.prof mem.prof $(CURDIR)/ && \
	echo "wrote cpu.prof and mem.prof (go tool pprof cpu.prof)"

fmt:
	gofmt -w .

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/affinity
	$(GO) run ./examples/compare
	$(GO) run ./examples/casestudy

clean:
	$(GO) clean ./...
