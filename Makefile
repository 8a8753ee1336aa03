GO ?= go

.PHONY: all vet lpvet build test tier1 race matrix smoke campaign scrub-smoke scrub-campaign cluster-smoke cluster-soak persistcheck-smoke persistcheck-soak model-smoke model-soak serve-smoke serve-soak replica-smoke replica-soak bench-smoke bench-micro bench-micro-smoke ci

all: ci

# vet: gofmt, go vet and lpvet, the repo's own static-contract suite
# (determinism, fencepair, persistbarrier, errcompare, seedplumb —
# see DESIGN.md §7). All three must be clean: any file gofmt -l lists
# fails the target.
vet:
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/lpvet ./...

# lpvet: just the static-contract suite, with per-analyzer docs via
# `go run ./cmd/lpvet -list`.
lpvet:
	$(GO) run ./cmd/lpvet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# tier1: the baseline gate every change must keep green.
tier1: vet build test

race:
	$(GO) test -race ./...

# matrix: the determinism suite (every pin runs its configuration twice,
# campaigns also at host fan-out 1 and 8) at two host scheduler widths;
# GOMAXPROCS must never change a reported number. -count=1 defeats the
# test cache, which does not key on GOMAXPROCS (the runtime reads it,
# not the test).
matrix:
	GOMAXPROCS=1 $(GO) test -short -count=1 -run 'TestParallelDeterminism' .
	GOMAXPROCS=4 $(GO) test -short -count=1 -run 'TestParallelDeterminism' .

# smoke: a quick seeded fault-injection sweep (every kernel × fault kind,
# 8 seeds each). Exits non-zero on any panic or silent mismatch.
smoke:
	$(GO) run ./cmd/lpfault -seeds 8

# campaign: the full 204-case robustness campaign from EXPERIMENTS.md.
campaign:
	$(GO) run ./cmd/lpfault -seeds 12

# scrub-smoke: a quick media-error rate sweep against the self-healing
# recovery orchestrator (scrub, quarantine, watchdog). Exits non-zero on
# any dishonest outcome (lying heal, untyped error, panic).
scrub-smoke:
	$(GO) run ./cmd/lpfault -ratesweep -seeds 3

# scrub-campaign: the fuller sweep from EXPERIMENTS.md, including the
# spin-lock/stuck-cell configuration.
scrub-campaign:
	$(GO) run ./cmd/lpfault -ratesweep -seeds 8
	$(GO) run ./cmd/lpfault -ratesweep -seeds 8 -locks -rates 0.05,0.2,0.4 -stuckfrac 0.5

# cluster-smoke: a quick multi-device failover sweep (2- and 3-device
# clusters, every failure kind × router, race detector on). Every case
# kills one device mid-launch and must recover the shared durable image
# bit-exactly on the survivors; exits non-zero on any mismatch or panic.
cluster-smoke:
	$(GO) run -race ./cmd/lpfault -cluster -seeds 2 -jobs 4 -parallel 4

# cluster-soak: the fuller failover sweep for scheduled CI — larger
# clusters, more seeds, plus a strict-quorum configuration that must
# degrade honestly.
cluster-soak:
	$(GO) run ./cmd/lpfault -cluster -devices 2,3,4,6 -seeds 8 -parallel 4
	$(GO) run ./cmd/lpfault -cluster -devices 2 -minalive 2 -seeds 8 -parallel 4

# persistcheck-smoke: the crash-consistency model checker at a fixed seed
# and small budget (the kernel × backend coverage sweep always runs in
# full). Exits non-zero on any persistency contract violation.
persistcheck-smoke:
	$(GO) run ./cmd/lpcheck -seed 1 -n 80 -quiet

# persistcheck-soak: a longer seeded fuzzing run for scheduled CI.
persistcheck-soak:
	$(GO) run ./cmd/lpcheck -seed 1 -n 100000 -duration 10m

# model-smoke: the model checker's backend sweep over every registered
# persistency model (lp, ep, sbrp, strict), race detector on. The
# models' unit contracts and seeded crash campaign (internal/pmodel,
# faultsim's TestModelCampaign) run in `go test -race ./...` — the race
# target and the CI test job — and are not repeated here. Exits non-zero
# on any prediction/recovery mismatch or contract violation.
model-smoke:
	$(GO) run -race ./cmd/lpcheck -model all -kernels tmm,spmv -seed 1 -n 20 -quiet

# model-soak: the full model × workload crash campaign plus a deep model
# checker run for scheduled CI.
model-soak:
	$(GO) run ./cmd/lpfault -model all -seeds 8 -parallel 4
	$(GO) run ./cmd/lpcheck -model all -seed 1 -n 4000 -quiet

# serve-smoke: a quick mid-serving crash sweep over every persistency
# model. The serving layer's race tests and the root determinism pin run
# in `go test -race ./...`. Exits non-zero on any ledger violation,
# recovery mismatch or panic.
serve-smoke:
	$(GO) run ./cmd/lpfault -serve -seeds 2 -parallel 4

# serve-soak: the fuller serving sweep for scheduled CI — more crash
# seeds per model plus the full harness serving experiment at host
# parallelism.
serve-soak:
	$(GO) run ./cmd/lpfault -serve -seeds 8 -parallel 4
	$(GO) run ./cmd/lpbench -exp serve -parallel 4

# replica-smoke: a quick R in {1,2} failover sweep over every registered
# persistency model — every R>=2 case must recover via replica adoption
# with zero re-executed blocks and a bit-exact pool audit. The placer and
# adoption unit contracts and the root determinism pins run in
# `go test -race ./...`. Exits non-zero on any contract breach, mismatch
# or panic.
replica-smoke:
	$(GO) run ./cmd/lpfault -replicas -rfactors 1,2 -model all -jobs 4 -seeds 2 -parallel 4

# replica-soak: the fuller replicated-failover sweep for scheduled CI —
# R up to the device count, every placer, all registered models, plus
# the harness write-amplification experiment and a degraded cluster
# serving run.
replica-soak:
	$(GO) run ./cmd/lpfault -replicas -rfactors 1,2,3,4 -model all -seeds 6 -parallel 4
	$(GO) run ./cmd/lpbench -exp replicacompare -parallel 4
	$(GO) run ./cmd/lpserve -devices 3 -fail-launch 2 -fail-device 1 -json > /dev/null

# bench-smoke: the benchmark module's own checks. bench/ is a separate Go
# module, so the root vet/test targets never reach it: every workload at
# smoke size, metric names against BENCHMARK.json, and the pinned
# simulated values for seed 1 (a host-speed change must leave them
# byte-identical).
bench-smoke:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

# bench-micro: the per-layer microbenchmarks of the functional pass's hot
# path, with allocation counts: a memsim load hit (one word, a walk over
# one line, two lines of one set), the sparse epoch drain, one gpusim
# ForAll phase (empty body and one load per thread), and one warm launch
# of a single 128-thread LP block (core LaunchSmall, the shape of a
# lightly loaded serving batch).
MICRO_BENCH = $(GO) test -run '^$$' -bench '^Benchmark(CachedLoad|LoadHitSameLine|LoadHitSetConflict|FlushAllSparse|ForAll|LaunchSmall)$$' -benchmem
MICRO_PKGS = ./internal/memsim/ ./internal/gpusim/ ./internal/core/

bench-micro:
	$(MICRO_BENCH) $(MICRO_PKGS)

# bench-micro-smoke: every bench-micro benchmark once, so none of them can
# stop compiling or running unnoticed. It is not a timing gate.
bench-micro-smoke:
	$(MICRO_BENCH) -benchtime=1x $(MICRO_PKGS)

ci: vet build race matrix smoke scrub-smoke cluster-smoke persistcheck-smoke model-smoke serve-smoke replica-smoke bench-smoke bench-micro-smoke
