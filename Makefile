GO ?= go

.PHONY: all build vet fmt-check test race check cache-check serve-check trace-check doclint linkcheck fuzz-short bench bench-kernel benchdiff-smoke serve-smoke microbench experiments experiments-full stkde cover clean

all: build check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when gofmt would reformat any Go file, listing them.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# doclint fails on any exported identifier without a doc comment (and on
# packages without a package comment); see cmd/doclint.
doclint:
	$(GO) run ./cmd/doclint .

# linkcheck fails on dead intra-repo links in the markdown docs; see
# cmd/linkcheck.
linkcheck:
	$(GO) run ./cmd/linkcheck .

# fuzz-short runs every Fuzz* target in the tree for FUZZTIME each
# (Go allows one -fuzz pattern per invocation, hence the loop). The
# targets discovered today: FuzzLowestFit, FuzzOrderByKey and
# FuzzOrderByWeightDesc (core),
# FuzzRead and FuzzPlaceLattice (grid), FuzzGreedyRepair (parallel),
# FuzzInjectionSchedule (chaos), FuzzParseRequest (service),
# FuzzDecodeEntry (resultcache) — but the loop finds new ones
# automatically.
FUZZTIME ?= 10s
fuzz-short:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for t in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz $$pkg/$$t ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# check is the CI gate: gofmt and static analysis, the full suite under
# the race detector (so the portfolio's concurrency paths are
# race-checked on every build; the no-stream flight-recorder and
# injector nil-path AllocsPerRun pins run here too), a short fuzz pass
# over every fuzz target, the documentation lints, the benchdiff
# self-diff smoke, the solve-daemon boot smoke, the quick
# kernel-benchmark tier (bench-kernel), the result-cache tier
# (cache-check), the daemon-timing tier (serve-check), and the
# request-tracing tier (trace-check). It is part of the default `make`
# flow via `all`.
check: fmt-check vet race fuzz-short doclint linkcheck benchdiff-smoke serve-smoke trace-check bench-kernel cache-check serve-check

# cache-check is the result-cache tier: the content-addressed cache and
# its persistence stores under the race detector (the concurrent
# get/put/evict storm and the shared view's tests run here), the grid's
# kept digest ten times under the race detector (one Best hashes a
# fresh grid once, also with four portfolio members digesting it at
# once, and Set, Clone and Layer key their own weights), plus the
# dispatch-layer guards — the nil-cache path stays 0 allocs/op and a
# cache hit skips the solver — and the daemon's ownership rules, ten
# times under the race detector: a finished job holds no grid, a hit's
# starts are the cache entry's array, and concurrent clients polling
# shared answers under evictions all get a direct solve's bytes.
cache-check:
	$(GO) test -race ./internal/resultcache/...
	$(GO) test -race -count=10 -run 'TestBestHashesOnce|TestDigestFollowsWeights|TestDigestNativeMatchesEncoded' ./internal/grid
	$(GO) test -run 'TestNilCacheLookupNoAllocs|TestRunCacheHitSkipsSolver' ./internal/heuristics
	$(GO) test -race -count=10 -run 'TestFinishedJobHoldsNoGrid|TestServiceHitSharesCacheEntry|TestServiceSharedAnswersConcurrent|TestServiceCacheHitByteIdentical' ./internal/service

# serve-check is the daemon-timing tier: the solve daemon's tests that
# depend on wall-clock timing, ten times under the race detector — two
# idle workers take two jobs side by side (work conservation), stalled
# dispatches shed the expired tail while the queue front completes, a
# stalled worker fills the per-tenant queue bound, concurrent tenants
# all finish, and the weighted fair scheduler's unit tests. It then runs
# the request-decoder benchmark (JSON and text bodies of a 96² and a 20³
# instance), the served cache-hit benchmark (a best and a GLL hit
# through the daemon's handler, JSON on 96², text on 20³) and the result
# encoder's at a short -benchtime, so those paths stay exercised and
# their allocs/op are printed.
serve-check:
	$(GO) test -race -count=10 -run 'TestServiceWorkConserving|TestServiceBatchStallShedsExpired|TestServiceQueueBoundSheds|TestServiceConcurrentTenants|TestScheduler' ./internal/service
	$(GO) test -run '^$$' -bench 'DecodeRequest|ServeHit|EncodeResult' -benchmem -benchtime 100x ./internal/service

# bench-kernel is the quick placement-kernel tier: the PlaceLowest
# micro-benchmarks (the uniform slot map, the color map on full,
# line-order and GLF weight-order neighborhoods, the streaming-scan
# fallback on the Heavy rows, and the Metrics rows that flush into a
# metrics bundle as the daemon does — allocs/op must print 0), SGK's 2D
# block search on its member color maps (BlockSearch, 0 allocs/op too),
# the work-stealing scheduler scaling sweep, and the solve orders and
# PGLL's sweep: the walked Morton order (ZOrder), the counted block and
# vertex weight orders (WeightOrder) and one face sweep of the repair
# loop (ConflictSweep), each printing its allocs/op.
# Short -benchtime keeps it CI-cheap; the committed numbers come from
# `make bench` (cmd/ivcbench), this tier just proves the benchmarks run
# and the hot paths still execute allocation-free.
bench-kernel:
	$(GO) test -run '^$$' -bench 'PlaceLowest|BlockSearch|StealScheduler|ZOrder|WeightOrder|ConflictSweep' -benchmem -benchtime 100x ./internal/grid ./internal/heuristics ./internal/parallel

# serve-smoke boots `ivc -serve` on an ephemeral port, POSTs one 9-pt
# and one 27-pt job through the HTTP job API, checks /healthz and the
# service_* families on /metrics, and verifies a clean SIGINT shutdown;
# see cmd/servesmoke.
serve-smoke:
	$(GO) build -o .smoke-ivc ./cmd/ivc
	$(GO) run ./cmd/servesmoke -bin ./.smoke-ivc
	rm -f .smoke-ivc

# trace-check is the request-tracing tier (DESIGN.md §16): it boots the
# daemon, submits one 9-pt job, and asserts the complete span tree —
# admission → batch → schedule → solve — comes back from /debug/flight
# by job id, plus a live /healthz p50 for the tenant. The in-process
# half of the tier (flight span tree, a job's records streamed by
# Export, chaos-stormed PGLL/BDP solves scraped concurrently under
# -race, `ivc -trace`/`-stats`/`-log` on a PGLL solve, BD/BDP/BDL's
# span trees and placement counts, and the disabled-path 0-alloc pins)
# rides along. Its last line runs, without the race detector, the
# allocation pin TestOrderedHeuristicsAllocsSizeIndependent (the ordered
# heuristics, BD and BDP allocate the same count on a grid 4× or 8×
# larger; `make race` runs it under the detector too) and
# TestFlightRingOverwrite (a full flight ring keeps exactly its newest
# records).
trace-check:
	$(GO) build -o .smoke-ivc ./cmd/ivc
	$(GO) run ./cmd/servesmoke -bin ./.smoke-ivc -flight
	rm -f .smoke-ivc
	$(GO) test -race -run 'TestServiceTraceSpanTree|TestServiceFlightExport|TestServiceStormFlightScrape' ./internal/service/
	$(GO) test -race -run 'TestTraceAndStats|TestLog' ./cmd/ivc
	$(GO) test -run 'TestNilTraceCtxNoAllocs|TestFlightRecordNoAllocs|TestBDFamilyPins|TestOrderedHeuristicsAllocsSizeIndependent|TestFlightRingOverwrite' ./internal/heuristics ./internal/obsv

# bench runs the committed performance suite (placement kernel, figure
# runtimes, sequential-vs-parallel scaling) and writes machine-readable
# numbers — plus git/wall-clock/runtime-sampler trajectory metadata —
# to $(BENCH_OUT), with a Prometheus snapshot of the solver metrics
# next to it. The default, BENCH_LOCAL.json (and .metrics.prom), is a
# git-ignored scratch name, so a run never overwrites a committed
# snapshot. To commit one, run `make bench BENCH_OUT=BENCH_PR<n>.json`
# and gate with `go run ./cmd/benchdiff BENCH_PR<m>.json
# BENCH_PR<n>.json` against the previous snapshot (BENCH_PR2.json is
# the PR 2 baseline and stays untouched). Use `make bench
# BENCH_FLAGS=-quick` for a fast smoke run.
BENCH_OUT ?= BENCH_LOCAL.json
bench:
	$(GO) run ./cmd/ivcbench $(BENCH_FLAGS) -out $(BENCH_OUT) -metrics $(BENCH_OUT:.json=.metrics.prom)

# benchdiff-smoke self-diffs the committed baseline: zero deltas, exit
# 0. It keeps the gate tool itself (parsers, matching, table, exit
# codes) from regressing without needing a fresh bench run in CI.
benchdiff-smoke:
	$(GO) run ./cmd/benchdiff BENCH_PR2.json BENCH_PR2.json

# microbench runs every in-tree testing.B benchmark; -run '^$$' skips
# the unit tests so benchmark packages don't re-run the full suite
# first.
microbench:
	$(GO) test -run '^$$' -bench=. -benchmem ./...

experiments:
	$(GO) run ./cmd/experiments -out results

experiments-full:
	$(GO) run ./cmd/experiments -full -out results

stkde:
	$(GO) run ./cmd/stkdebench -out results

cover:
	$(GO) test -cover ./...

# clean removes the untracked outputs of the build, smoke and bench
# targets. It leaves results/ alone: its CSV series are committed and
# cited by EXPERIMENTS.md.
clean:
	rm -f .smoke-ivc BENCH_LOCAL.json BENCH_LOCAL.metrics.prom
