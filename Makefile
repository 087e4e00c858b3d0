# Shared entry points for CI (.github/workflows/ci.yml) and local
# development — keep the two in sync by only ever invoking make from CI.

# The bench targets pipe `go test` through tee; without pipefail a failed
# benchmark run would leave the pipeline (and CI) green.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -c

GO ?= go
BENCH_OUT ?= bench.txt
BENCH_BASE ?= benchbase.txt
BENCH_NEW ?= bench.new.txt
BENCH_DIFF ?= benchdiff.txt

# Micro-benchmarks of the hot kernels (excludes the full experiment
# regenerations): the set benchdiff tracks against the committed baseline.
# Query side: SimDBLookup/RMASimRun/... Build side: StackDistances,
# LeadingMissSurface (fused all-(c,w) profile), SimulatePhase (per-phase
# kernel), SimPointAnalyze (suite-wide SimPoint on one goroutine),
# SimDBBuild (cold one-benchmark database) and EnvBuild (cold full
# environment — the headline build-side wall time, also recorded in the CI
# bench artifact).
MICRO_BENCH ?= ATDAccess|StackDistances|MLPAnalysis|LeadingMissSurface|SimulatePhase|SimPointAnalyze|CurveReduction|TreeReduction16Core|SimDBLookup|SimDBBuild|SimDBReferenceEval|RMASimRun|RMASimStep|ClusterRun|RMAOverhead|RM3Overhead|EnvBuild|WireEncode|WireDecode|Equilibrium|ScorerCold|ClusterEquilibrium
# benchbase and benchdiff must measure under identical flags, or the
# benchstat comparison is noise.
MICRO_FLAGS ?= -benchtime=0.2s -count=5

.PHONY: all build test test-short lint shlint vet-suite escape-check escape-baseline \
	bench benchbase benchdiff pprof example-cluster \
	loadtest loadtest-wire chaos determinism golden cover cover-check fuzz-smoke docs-check clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Fast verification: multi-second environment builds are skipped via
# testing.Short; CI uses this for the per-push test step.
test-short:
	$(GO) test -short -race ./...

lint: shlint vet-suite
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

# The repo-specific analyzer suite (cmd/qosrmavet, docs/analysis.md):
# determinism, noalloc, shardowned, ctxdeadline and exhaustive over the
# whole module, at a zero-finding baseline. Findings land in
# qosrmavet.txt (uploaded as a CI artifact on failure).
vet-suite:
	$(GO) run ./cmd/qosrmavet ./... 2>&1 | tee qosrmavet.txt

# Shell hygiene for scripts/*.sh: bash shebang, set -euo pipefail, bash -n.
shlint:
	./scripts/shlint.sh

# Compiler escape analysis over every //qosrma:noalloc function, diffed
# against the committed baseline (internal/analysis/escape.baseline). A
# new escape in a hot function fails here even when no AllocsPerRun pin
# happens to cross it. Diff lands in escape.diff.txt for CI artifacts.
escape-check:
	$(GO) run ./cmd/qosrmavet -escape 2>&1 | tee escape.diff.txt

# Rewrite the escape baseline from the current tree (review the diff
# before committing: every new line is a new hot-path heap escape).
escape-baseline:
	$(GO) run ./cmd/qosrmavet -escape -update

# One iteration per benchmark: a smoke run that still reports the paper
# metrics (avgSavings% etc.), captured for the perf trajectory artifact.
bench:
	$(GO) test -bench=. -benchtime=1x -run '^$$' ./... | tee $(BENCH_OUT)

# Regenerate the committed micro-benchmark baseline (same flags as
# benchdiff, so benchstat compares like with like).
benchbase:
	$(GO) test -bench='$(MICRO_BENCH)' $(MICRO_FLAGS) -run '^$$' . | tee $(BENCH_BASE)

# Run the micro-benchmarks and compare against the committed baseline with
# benchstat, or, where benchstat is not installed, with the stdlib-only
# cmd/benchcmp (median ns/op ratio per benchmark, flagged only outside the
# baseline's quartile spread; needs no network). The diff lands in
# $(BENCH_DIFF) (uploaded as a CI artifact).
benchdiff:
	$(GO) test -bench='$(MICRO_BENCH)' $(MICRO_FLAGS) -run '^$$' . | tee $(BENCH_NEW)
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCH_BASE) $(BENCH_NEW) | tee $(BENCH_DIFF); \
	else \
		$(GO) run ./cmd/benchcmp $(BENCH_BASE) $(BENCH_NEW) | tee $(BENCH_DIFF); \
	fi

# Smoke-run the open-system cluster walkthrough in its short shape (the
# CI build job runs this so the fleet engine stays demonstrably working).
example-cluster:
	$(GO) run ./examples/cluster -short

# Serving-layer smoke: start qosrmad, drive it with the deterministic
# loadgen trace, enforce the 100k decide-requests/sec floor and leave the
# report in loadgen.txt (uploaded with the CI bench artifacts).
loadtest:
	./scripts/loadtest.sh

# Same smoke over the binary decide protocol (qosrmad -wire-addr +
# loadgen -wire): the zero-copy path must clear a floor well above the
# JSON one. Report lands in loadgen.wire.txt.
loadtest-wire:
	WIRE=1 MIN_QPS=250000 OUT=loadgen.wire.txt ./scripts/loadtest.sh

# The chaos wall: the seeded in-process fault-injection suite (real
# servers behind deterministic fault proxies, routed on both codecs —
# bit-identical answers under faults, bounded errors, eject/readmit on
# kill/heal) plus a multi-process drill on this runner: four qosrmad
# replicas behind a qosrmad -route tier, loadgen driving JSON and wire
# through it while a backend is kill -9'd and restarted. Also the
# ROADMAP's multi-process distributed loadtest target. Report: chaos.txt.
chaos:
	./scripts/chaos.sh

# The byte-determinism wall, promoted to the per-push CI lane: the cluster
# engine's emitter output across worker counts {1,4,GOMAXPROCS} (scored
# and equilibrium placement), database builds across worker counts (cold
# caches, SimPoint included), bounds-accelerated k-means against the plain
# Lloyd reference, concurrent service batches vs sequential library calls
# (also four callers per shard on both codecs across a hot swap), the
# flat decision LRU against the list-based LRU it replaced,
# the binary decide path vs the JSON one on the same seeded trace, the
# JSON decide path's bytes vs encoding/json's (encoder over the whole
# lattice, served responses vs the reference handler on every seed), the
# binary response stream hash across shard/cache layouts, the Nash solver's
# equilibrium across solver worker counts and repeated runs and against the
# unmemoized reference solver, the scorer's payoff memo against fresh
# scorers (serial and concurrent), and the resource manager's curve table
# and allocation memo against unkeyed twins (every scheme, both models,
# oracle and realistic statistics, through vacancies and table resets),
# the routing tier's streamed key hash against the rendered key and
# its pre-streaming reference on both codecs (placement is part of the
# contract), and the service's query hash: equal across the JSON and wire
# codecs and balanced over 2, 4 and 16 shards (shard placement is part of
# what this wall pins).
# Run without -short (these need real database builds) and without caching.
determinism:
	$(GO) test -count=1 -run \
		'TestClusterDeterministic|TestEquilibriumPlacementDeterministic|TestSolveDeterministic|TestSolveMatchesReference|TestScoreMemoBitIdentical|TestBuildDeterministicAcrossWorkerCounts|TestHamerlyMatchesLloyd|TestConcurrentDecideDeterministic|TestConcurrentDecideAcrossSwap|TestLRUMatchesReference|TestDecideMatchesLibrary|TestWireMatchesJSON|TestDecideJSONEncoderMatchesStdlib|FuzzDecideJSONMatchesStdlib|TestWireStreamDeterministic|TestDecideTableMatchesUnkeyed|TestTableBoundResets|TestFeedbackBypassesTable|TestTableCurveImmutable|TestMemoStoresInfeasible|TestFillStatsKey|FuzzRoutingHash|FuzzQueryHash|TestQueryHashBalance' \
		./internal/cluster ./internal/equilibrium ./internal/sched ./internal/simdb ./internal/simpoint ./internal/service ./internal/core ./internal/rmasim ./internal/route

# Golden-table regression: regenerate the committed paper tables (via
# System.Sweep) and the small-fleet placement comparison, and fail on any
# byte drift (refresh intentionally with `go test -run TestGolden -update .`).
golden:
	$(GO) test -count=1 -run 'TestGolden' .

# Fuzz regression: run every fuzz target over its seed corpus only (no
# fuzzing time), so corpus regressions fail fast in CI; `go test -fuzz`
# explores further locally.
fuzz-smoke:
	$(GO) test -count=1 -run 'Fuzz' ./internal/simdb ./internal/service ./internal/cache ./internal/core ./internal/wire ./internal/route

# Docs consistency wall: every relative link in README.md and docs/
# resolves, and the server's registered route table matches docs/api.md
# in both directions (no undocumented routes, no phantom docs).
docs-check:
	./scripts/docscheck.sh

# Coverage report: cover/cover.out + per-package HTML + cover/func.txt.
cover:
	./scripts/cover.sh

# Ratcheting CI floor: fail when total coverage drops below
# .coverage-floor (kept at measured% - 1; raise it as coverage grows).
cover-check:
	./scripts/cover.sh check

# CPU-profile the build side: one cold SharedEnv construction plus the hot
# profiling kernels, then print the top consumers. cpu.prof stays on disk
# for `go tool pprof` drill-down (web/peek/list).
pprof:
	$(GO) test -run '^$$' -bench 'EnvBuild|SimulatePhase|LeadingMissSurface|StackDistances' \
		-benchtime=0.5s -count=1 -cpuprofile cpu.prof -o qosrma.test .
	$(GO) tool pprof -top -nodecount=25 qosrma.test cpu.prof | tee pprof.txt

clean:
	rm -f $(BENCH_OUT) $(BENCH_NEW) $(BENCH_DIFF) cpu.prof pprof.txt qosrma.test loadgen.txt loadgen.wire.txt chaos.txt qosrmavet.txt escape.diff.txt
	rm -rf cover bin
	$(GO) clean ./...
