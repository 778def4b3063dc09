# Standard verification pipeline. `make check` is the everything gate:
# gofmt, vet, build, race-enabled tests, short passes over every fuzz
# target, and the benchmark module's vet + smoke.

GO ?= go
FUZZTIME ?= 10s

.PHONY: check fmt vet build test race fuzz bench-smoke bench bench-serve bench-e2e chaos e2e

check: fmt vet build race fuzz bench-smoke

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
	$(GO) test -run=^$$ -fuzz=FuzzLinkArrive -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzEventQueue -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzBoundedDraw -fuzztime=$(FUZZTIME) ./internal/sim
	$(GO) test -run=^$$ -fuzz=FuzzActionsStep -fuzztime=$(FUZZTIME) ./internal/rt
	$(GO) test -run=^$$ -fuzz=FuzzLockprotoDedup -fuzztime=$(FUZZTIME) ./internal/lockproto
	$(GO) test -run=^$$ -fuzz=FuzzDoneIndex -fuzztime=$(FUZZTIME) ./internal/lockproto
	$(GO) test -run=^$$ -fuzz=FuzzRecEncodeMatchesStdlib -fuzztime=$(FUZZTIME) ./internal/lockproto
	$(GO) test -run=^$$ -fuzz=FuzzWireCodecEquivalence -fuzztime=$(FUZZTIME) ./internal/lockproto
	$(GO) test -run=^$$ -fuzz=FuzzWireStreamReader -fuzztime=$(FUZZTIME) ./internal/lockproto
	$(GO) test -run=^$$ -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./internal/wal
	$(GO) test -run=^$$ -fuzz=FuzzExclusionMonitor -fuzztime=$(FUZZTIME) ./internal/checker
	$(GO) test -run=^$$ -fuzz=FuzzOracleMonitor -fuzztime=$(FUZZTIME) ./internal/checker

# The repository benchmark (bench/) is a module of its own, outside
# `go build ./...` and `go test ./...`: vet it and run its ~7 s smoke (every
# workload once, every BENCHMARK.json metric produced), so a change to
# internal/* that breaks it fails here rather than at the next measurement.
bench-smoke:
	$(GO) vet -C bench ./...
	$(GO) test -C bench

# Performance trajectory: run the substrate micro-benchmarks and the E*
# experiment benches, and convert each set to a JSON artifact via
# cmd/bench2json. The previously committed artifact is embedded as the
# baseline, so every BENCH_*.json carries its own before/after deltas
# (ns/op, allocs/op, deliveries/op, campaign wall-clock + speedup). CI
# archives both files per commit. bench2json exits 1, after writing the
# artifact, if a benchmark's allocs/op rose against its baseline: from 0 to
# anything, or by more than 5 % and more than 8 allocations.
KERNEL_BENCH := BenchmarkKernel|BenchmarkForksTable|BenchmarkPairMonitor|BenchmarkHeartbeatOracle|BenchmarkChaosCampaign|BenchmarkCheckerExclusion
EXPERIMENT_BENCH := BenchmarkE[0-9]|BenchmarkCampaignParallel

bench:
	$(GO) test -run '^$$' -bench '$(KERNEL_BENCH)' -benchmem . \
		| $(GO) run ./cmd/bench2json -baseline BENCH_kernel.json -o BENCH_kernel.json
	$(GO) test -run '^$$' -bench '$(EXPERIMENT_BENCH)' -benchtime 1x -benchmem . \
		| $(GO) run ./cmd/bench2json -baseline BENCH_experiments.json -o BENCH_experiments.json

# Service-path trajectory, shaped like `bench`: lockproto's codec, flush
# writer, journal encoder and registry micro-benchmarks (with their
# encoding/json baselines; BenchmarkSessionsSnapshot is one checkpoint of a
# registry with 200 000 finished sessions), the WAL's append+sync round and
# its group commit (BenchmarkStore*; "interval" is held at 0 allocs/op by
# bench2json's rule) and dinesvc's in-process loopback service benchmarks
# (BenchmarkServeGrant* includes BenchmarkServeGrantContended, ring_extract's
# shape), in BENCH_serve.json. End-to-end figures are bench-e2e's.
SERVE_BENCH := BenchmarkWire|BenchmarkFlushWriter|BenchmarkRecAppend|BenchmarkSessions|BenchmarkStore|BenchmarkServeGrant|BenchmarkServeChurn|BenchmarkServeBoot

bench-serve:
	$(GO) test -run '^$$' -bench '$(SERVE_BENCH)' -benchmem ./internal/lockproto ./internal/wal ./internal/dinesvc \
		| $(GO) run ./cmd/bench2json -baseline BENCH_serve.json -o BENCH_serve.json

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

# End to end against the real binaries (internal/e2e): dineserve under
# dineload, flat and sharded, behind the chaos proxy with a diner
# crash/restart, kill -9'd with sessions held and restarted from its WAL, and
# booted from a torn WAL tail — exit statuses and /statusz series asserted,
# every ledger audited by walinspect. METRICS_OUT keeps the final snapshot.
e2e:
	$(GO) test -count=1 ./internal/e2e
