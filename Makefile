GO ?= go

.PHONY: all build test inlinecheck race bench benchsmoke benchdiff benchpair vet fmt fmtcheck check fuzz stress lockrank migrate trace examples tables attacks xsa demo serve serve-smoke benchmark-smoke clean

all: build test

check: build fmtcheck vet inlinecheck test lockrank race stress fuzz benchsmoke serve-smoke benchmark-smoke examples migrate
	$(GO) run ./cmd/fidelius-serve -tenants 2 -clients 16 -duration 100 -tamper 1

# The whole test suite with the debug lock-rank checker armed: every
# ranked acquisition is validated against the documented lock order
# (domain -> shared shards -> gate -> registries -> bus -> leaves), and
# any inversion panics with both ranks named.
lockrank:
	FIDELIUS_LOCKRANK=1 $(GO) test ./...

build:
	$(GO) build ./...

# Fails unless the compiler still inlines the cold encrypted-miss helper
# decryptFill into Controller.Read: when it stopped inlining, serve-get
# run_s rose ~8% with no hot-path code changed, and nothing else notices.
inlinecheck:
	@$(GO) build -gcflags=-m ./internal/hw 2>&1 | grep -q 'inlining call to decryptFill' || \
		{ echo "inlinecheck: decryptFill is no longer inlined into hw.Controller.Read" >&2; exit 1; }

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short bursts over each bundle-unmarshaling fuzz target; the corpus
# seeds cover the valid shapes, fuzzing hunts for parser panics and
# validation gaps in attacker-supplied wire bytes.
fuzz:
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzUnmarshalGuestBundle -fuzztime 5s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzUnmarshalMigrationBundle -fuzztime 5s
	$(GO) test ./internal/core/ -run '^$$' -fuzz FuzzUnmarshalGEKBundle -fuzztime 5s

# Concurrency stress: the parallel-scheduling, shared-memory-path,
# lifecycle-churn, grant/event-storm and vCPU world-switch suites,
# repeated under the race
# detector at several core counts so both the contended and the fully
# serialized interleavings get exercised. The suites arm the lock-rank
# checker themselves; FIDELIUS_LOCKRANK=1 extends it to every test.
# (-short skips the single-domain parity guard, which is a wall-clock
# benchmark, not a race hunt; plain `make race` still runs it once.)
stress:
	GOMAXPROCS=1 $(GO) test -race -short -count=5 -run 'Concurrent|Parallel|VCPU' ./...
	GOMAXPROCS=2 $(GO) test -race -short -count=5 -run 'Concurrent|Parallel|VCPU' ./...
	GOMAXPROCS=4 $(GO) test -race -short -count=5 -run 'Concurrent|Parallel|VCPU' ./...

migrate:
	$(GO) run ./cmd/fidelius-migrate
	$(GO) run ./cmd/fidelius-migrate -faulty
	$(GO) run ./cmd/fidelius-migrate -tamper

# Capture a benchmark artifact: every workload of benchmark/ at the
# default --seconds, written to a new file, e.g.
# `make bench BENCH_NEW=BENCH_17.json`. An existing artifact is never
# overwritten.
bench:
	@test -n "$(BENCH_NEW)" || { echo "usage: make bench BENCH_NEW=BENCH_<n>.json" >&2; exit 2; }
	@test ! -e "$(BENCH_NEW)" || { echo "$(BENCH_NEW) exists; refusing to overwrite it" >&2; exit 1; }
	bash benchmark/run.sh --workload all -out $(BENCH_NEW)

# One-iteration pass over every testing.B benchmark in the module:
# catches bit-rot without paying for a full measurement run.
benchsmoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# The end-to-end benchmark (benchmark/, its own Go module): its tests run
# all four workloads in quick mode, plain and traced, then run.sh builds
# the binary from source and runs every workload once more. Any failed
# correctness gate exits nonzero.
benchmark-smoke:
	cd benchmark && $(GO) test ./...
	bash benchmark/run.sh --workload all --quick --seconds 1

# Regression gate for an artifact: `benchmark -compare` against its
# predecessor and against the pinned anchor BENCH_16.json, with the
# bounds of BENCHMARK.json, e.g.
# `make benchdiff BENCH_OLD=BENCH_16.json BENCH_NEW=BENCH_17.json`.
# Both comparisons always print; the target fails if either regressed.
benchdiff:
	@test -n "$(BENCH_OLD)" -a -n "$(BENCH_NEW)" || { echo "usage: make benchdiff BENCH_OLD=<old>.json BENCH_NEW=<new>.json" >&2; exit 2; }
	@status=0; \
	bash benchmark/run.sh -compare $(BENCH_OLD) $(BENCH_NEW) || status=1; \
	bash benchmark/run.sh -compare BENCH_16.json $(BENCH_NEW) || status=1; \
	exit $$status

# Paired host-metric comparison of the working tree against a base
# revision: alternating single-workload runs of both, then each side's
# median and quartiles per end-to-end metric and the pairs the working
# tree won, e.g.
# `make benchpair BENCH_WORKLOAD=vm-lifecycle BENCH_PAIRS=10`.
BENCH_BASE ?= HEAD
BENCH_WORKLOAD ?= vm-lifecycle
BENCH_SECONDS ?= 8
BENCH_PAIRS ?= 10
BENCH_SEED ?= 1
benchpair:
	bash scripts/benchpair.sh --base $(BENCH_BASE) --workload $(BENCH_WORKLOAD) \
		--seconds $(BENCH_SECONDS) --pairs $(BENCH_PAIRS) --seed $(BENCH_SEED)

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Fails, naming the files, when any Go file is not gofmt-clean; `make fmt`
# rewrites them.
fmtcheck:
	@out=$$(gofmt -l .); test -z "$$out" || { echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; }

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/secureio
	$(GO) run ./examples/migration
	$(GO) run ./examples/memsharing
	$(GO) run ./examples/extensions
	$(GO) run ./examples/kvstore

tables:
	$(GO) run ./cmd/benchtab

attacks:
	$(GO) run ./cmd/attacksim

xsa:
	$(GO) run ./cmd/xsastats -mechanisms

demo:
	$(GO) run ./cmd/fidelius-demo

# Multi-tenant KV serving scenario: 8 tenant VMs, 1024 client sessions,
# open-loop load, attestation-gated admission, per-tenant SLO table.
serve:
	$(GO) run ./cmd/fidelius-serve

# Serving smoke gates, in escalating order:
#  1. put-heavy at the *old* seek-bound knee (~1.4 ops/Mcycle fleet =
#     0.35/tenant x 4): group commit must cruise here.
#  2. put-heavy at the *new* knee (1.6/tenant x 4 = 6.4 fleet): the
#     adaptive-depth hold policy must keep the p50 objective passing.
#  3. get-heavy (93% gets over a hot working set): the guest read cache
#     path must hold its SLOs while serving repeated reads.
#  4. the long-lived tenant: one tenant overwrites its store region
#     several times; online compaction must keep it serving (at least
#     one compaction, zero errored or mismatched ops).
# Each gate exits nonzero on failure.
serve-smoke:
	$(GO) run ./cmd/fidelius-serve -tenants 4 -clients 16 -rate 0.35 -duration 60 -putfrac 0.7 -delfrac 0.1 -smoke
	$(GO) run ./cmd/fidelius-serve -tenants 4 -clients 16 -ops 2 -rate 1.6 -putfrac 0.7 -delfrac 0.1 -smoke
	$(GO) run ./cmd/fidelius-serve -tenants 4 -clients 8 -ops 8 -rate 1.0 -getfrac 0.93 -smoke
	$(GO) run ./cmd/fidelius-serve -compact-smoke

trace:
	$(GO) run ./cmd/fidelius-demo -trace fidelius-trace.json -metrics
	@echo "load fidelius-trace.json in chrome://tracing or https://ui.perfetto.dev"

clean:
	$(GO) clean ./...
