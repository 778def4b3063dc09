# Standard verification pipeline. `make check` is the everything gate:
# gofmt, vet, build, race-enabled tests, and short passes over every fuzz
# target.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check fmt vet build test race fuzz bench bench-serve bench-e2e chaos chaos-live serve-smoke serve-crash

check: fmt vet build race fuzz

# Fails when any file needs gofmt. The walk ignores module boundaries, so
# bench/ is checked too.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Short passes over the existing fuzz targets; each runs on the corpus plus
# $(FUZZTIME) of new inputs.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzConsensusSchedules -fuzztime=$(FUZZTIME) ./internal/consensus
	$(GO) test -run=^$$ -fuzz=FuzzMutexSchedules -fuzztime=$(FUZZTIME) ./internal/mutex
	$(GO) test -run=^$$ -fuzz=FuzzPairMonitorSchedules -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzForksSchedules -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run=^$$ -fuzz=FuzzLinkPlanValidate -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzLockprotoDedup -fuzztime=$(FUZZTIME) ./internal/lockproto
	$(GO) test -run=^$$ -fuzz=FuzzWireCodecEquivalence -fuzztime=$(FUZZTIME) ./internal/lockproto
	$(GO) test -run=^$$ -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/wal

# Performance trajectory: run the substrate micro-benchmarks and the E*
# experiment benches, and convert each set to a JSON artifact via
# cmd/bench2json. The previously committed artifact is embedded as the
# baseline, so every BENCH_*.json carries its own before/after deltas
# (ns/op, allocs/op, deliveries/op, campaign wall-clock + speedup). CI
# archives both files per commit. bench2json exits 1, after writing the
# artifact, if a benchmark with a 0 allocs/op baseline now allocates.
KERNEL_BENCH := BenchmarkKernel|BenchmarkForksTable|BenchmarkPairMonitor|BenchmarkHeartbeatOracle|BenchmarkCheckerExclusion
EXPERIMENT_BENCH := BenchmarkE[0-9]|BenchmarkCampaignParallel

bench:
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -benchmem . \
		| $(GO) run ./cmd/bench2json -baseline BENCH_kernel.json -o BENCH_kernel.json
	$(GO) test -run '^$$' -bench '$(EXPERIMENT_BENCH)' -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/bench2json -baseline BENCH_experiments.json -o BENCH_experiments.json

# Service-path trajectory: codec/flush/registry micro-benchmarks (with their
# encoding/json baselines), the in-process loopback service benchmarks, and
# a real dineload run against dineserve, all folded into BENCH_serve.json.
# CLIENTS/DURATION are overridable.
bench-serve:
	$(GO) build -o bin/dineserve ./cmd/dineserve
	$(GO) build -o bin/dineload ./cmd/dineload
	bash scripts/bench_serve.sh

# The repository benchmark (BENCHMARK.json, bench/README.md): its four
# closed-loop workloads on short windows, end-to-end metrics only. bench/ is
# a module of its own, hence -C. The driver measures on 20 s windows; 5 s
# is enough to see a layer move.
bench-e2e:
	for w in solo ring_extract ring_durable sim_campaign; do \
		$(GO) run -C bench . --workload $$w --seconds 5 || exit 1; \
	done

# The default chaos campaign: 240 runs over the real dining boxes, exit 1 on
# any property violation.
chaos:
	$(GO) run ./cmd/chaos

# The live chaos campaign: seeded fault schedules (drops, one partition
# window, one crash/restart) against real tables — once in-process over the
# fault-injecting bus, once as dineserve behind the chaos TCP proxy under a
# self-healing dineload — with clean checker verdicts required of both.
chaos-live:
	$(GO) build -o bin/chaos ./cmd/chaos
	$(GO) build -o bin/chaosproxy ./cmd/chaosproxy
	$(GO) build -o bin/dineserve ./cmd/dineserve
	$(GO) build -o bin/dineload ./cmd/dineload
	bash scripts/chaos_live.sh

# End-to-end smoke of the live service: boot dineserve on an ephemeral
# loopback port, run a 64-client dineload burst, SIGINT the server, and
# require a clean drain plus a clean ◇WX-exclusion verdict over the whole
# run's trace. CLIENTS/DURATION are overridable.
serve-smoke:
	$(GO) build -o bin/dineserve ./cmd/dineserve
	$(GO) build -o bin/dineload ./cmd/dineload
	bash scripts/serve_smoke.sh

# Crash-recovery acceptance: the in-process whole-table blackout campaign,
# then dineserve with a WAL kill -9'd mid-load and restarted from its data
# directory (clients must see zero errors and zero double grants, the
# ledger must verify), then a torn-WAL-tail boot. CLIENTS/DURATION are
# overridable.
serve-crash:
	$(GO) build -o bin/chaos ./cmd/chaos
	$(GO) build -o bin/dineserve ./cmd/dineserve
	$(GO) build -o bin/dineload ./cmd/dineload
	$(GO) build -o bin/walinspect ./cmd/walinspect
	bash scripts/serve_crash.sh
