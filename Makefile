# Single source of truth for the commands CI runs — invoke the same
# targets locally before pushing.

GO ?= go

# Total-statement-coverage floor enforced by `make cover` (see
# scripts/check_coverage.sh): the measured total minus one point, last
# raised at 77.7 % measured.
COVERAGE_BASELINE ?= 76.7

.PHONY: all build loc test race fuzz bench-harness ab cover nofma serve-smoke stream-smoke examples load-smoke drift-smoke crash-smoke fmt vet ci

all: build

build:
	$(GO) build ./...

# Non-test Go lines outside benchmark/: the number a simplicity PR's
# acceptance quotes. CI echoes it with the build.
loc:
	@./scripts/loc.sh

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fuzz every Fuzz* target in the module for FUZZTIME each
# (scripts/fuzz.sh). Plain `go test` only replays the seed corpora, so a
# decoder crash no seed reaches is never found there.
FUZZTIME ?= 10s
fuzz:
	./scripts/fuzz.sh $(FUZZTIME)

# Serving smoke: datagen a tiny star schema, train -save both model kinds,
# boot cmd/serve and curl /healthz + predictions + /statsz.
serve-smoke:
	./scripts/serve_smoke.sh

# Streaming smoke: datagen -> train -> boot cmd/serve -fact -> ingest
# deltas over HTTP -> dimension update changes predictions live, the
# refresh-rows policy republishes the model, /statsz shows the counters.
stream-smoke:
	./scripts/stream_smoke.sh

# Load smoke: boot cmd/serve with admission control + metrics, drive a
# mixed predict/ingest/refresh ramp with cmd/loadgen, check the
# BENCH_load.json report (p50/p99/p999, saturation throughput), that
# overload answers structured 429s only, and that /metrics is valid
# Prometheus text format. CI uploads BENCH_load.json as an artifact.
load-smoke:
	./scripts/load_smoke.sh

# Drift smoke: train -save captures a baseline into the model's lineage,
# cmd/serve boots with health monitoring, a shifted delta ingested over
# HTTP flips GET /v1/models/{name}/health to "drifting" with the PSI
# gauges visible in /metrics, and a refresh restores "fresh".
drift-smoke:
	./scripts/drift_smoke.sh

# Crash smoke: boot cmd/serve with -wal-dir, drive ingest traffic with
# cmd/loadgen plus explicit acked batches, kill -9 the server process
# mid-traffic, reboot on the same directory, and assert /readyz returns,
# the recovered LSN covers every acknowledged record (zero acked-row
# loss), model health lineage is consistent, and the WAL telemetry is
# live.
crash-smoke:
	./scripts/crash_smoke.sh

# Examples: run every examples/ main through the public facade — the
# multi-hop snowflake among them (orders ⋈ items ⋈ categories ⋈
# suppliers, M/F models compared) — each exiting non-zero on a failed
# check.
examples:
	@set -e; for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d; done

# Benchmark harness: benchmark/ is a nested module, so `go build ./...`
# never compiles it and `go test ./...` only vets it
# (TestBenchmarkHarnessCompiles) — yet it calls internal/join, factor,
# linalg, gmm, nn and plan exports. Vet it and run its self-test (every
# workload at 2 % scale, plain and traced, self-checks on) so an internal
# change that breaks what the harness measures fails CI.
bench-harness:
	cd benchmark && $(GO) vet . && $(GO) test .

# Paired A/B on the benchmark: exports AB_BASE and AB_HEAD (any git ref, or
# WORKTREE for the working tree) under .bench_build/ab/, builds each with
# its own benchmark/run.sh, alternates the sides (first side flipped every
# pair) and prints per metric both medians and quartiles and the pairs won
# — the comparison a performance claim is judged by. AB_ARGS passes
# --workload W --pairs N --seed S through; ten pairs of all three workloads
# take about 45 minutes.
AB_BASE ?= HEAD
AB_HEAD ?= WORKTREE
ab:
	./scripts/ab.sh $(AB_BASE) $(AB_HEAD) $(AB_ARGS)

# Coverage gate: run the tests with -coverprofile and fail when total
# statement coverage drops below COVERAGE_BASELINE. CI uploads
# coverage.out as an artifact.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	./scripts/check_coverage.sh coverage.out $(COVERAGE_BASELINE)

# Portable transcendentals: cross-compile internal/linalg for arm64, ppc64le
# and s390x and require 0 fused multiply-adds in the exp/log kernels
# (scripts/nofma.sh), so their bits are the same on every architecture.
nofma:
	./scripts/nofma.sh

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Vet the Go code and syntax-check every script, so a slip in the smokes'
# shared scripts/lib.sh fails here rather than halfway through a smoke.
vet:
	$(GO) vet ./...
	@for f in scripts/*.sh; do bash -n "$$f" || exit 1; done

ci: fmt vet build nofma race fuzz cover bench-harness serve-smoke stream-smoke examples load-smoke drift-smoke crash-smoke
