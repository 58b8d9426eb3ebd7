GO ?= go

.PHONY: build test vet lint lint-budget lintdiff loc race check check-deep bench-check bench-smoke bench bench-heavy benchdiff bench-dist bench-scale bench-locality bench-fabric profdiff baseline clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs nifdy-lint, the domain-specific analyzer suite (DESIGN.md §7):
# determinism (mapiter, wallclock), zero-allocation (hotalloc), two-phase
# discipline (latchphase), pool ownership (poolsafe), codec completeness
# (codecsync), enum exhaustiveness (kindswitch), and shard safety
# (shardsafe) over the whole module,
# including the stale-suppression audit.
lint:
	$(GO) run ./cmd/nifdy-lint

# lint-budget is the lint wall-clock gate: the whole-module run (load +
# all analyses) must finish inside BUDGET, so a rule that goes quadratic
# fails CI loudly instead of quietly eating the tier-1 gate.
# Override with: make lint-budget BUDGET=30s
lint-budget:
	$(GO) run ./cmd/nifdy-lint -budget $(or $(BUDGET),120s)

# lintdiff fails if the diff against BASE (default origin/main, falling back
# to HEAD~1) introduces //lint:allow suppressions without a reason.
lintdiff:
	./scripts/lintdiff.sh $(BASE)

# loc prints the non-test Go line count outside bench/ — the number the
# "net-negative" acceptance criteria are checked against.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' ! -path '*/testdata/*' | xargs cat | wc -l

# check is the tier-1 gate (see ROADMAP.md): everything must pass before
# a PR lands.
check: build vet lint test

# check-deep runs the deep correctness sweep: the invariant-monitor
# acceptance matrix and mutation suite, a scaled-up randomized
# cross-configuration fuzz sweep, and native fuzzing of the queue
# primitives. The time budget caps the add-on stages:
# make check-deep MINUTES=15
check-deep:
	./scripts/checkdeep.sh $(MINUTES)

# race exercises the concurrency-heavy packages — the engine's worker
# pool and quiescence protocol, the flow fabric's per-shard staging
# hand-off, the harness's concurrent simulations, and the processors'
# program goroutines — under the race detector.
race:
	$(GO) test -race -count=1 -timeout 3600s ./internal/sim/... ./internal/flow/... ./internal/harness/... ./internal/node/... ./internal/core/... ./internal/dist/...

# bench-check runs the benchmark module's own tests (bench/ is a module of
# its own, so `go test ./...` at the root does not see it): the smoke over
# every BENCHMARK.json workload, the -compare verdicts, and the equivalence
# of bench's hand-mirrored NIC/Proc wiring with harness.Build's.
bench-check:
	$(GO) test -C bench ./...

# bench-smoke runs one iteration of the engine microbenchmarks and the
# cheap end-to-end cycle benchmark: enough to catch gross regressions
# without the multi-minute figure benchmarks. The timer-wheel, processor and
# flow-solver benchmarks run longer, with -benchmem: ns per Tick among 1k and
# 64k timed sleepers (the two must agree), ns per Send stalled K cycles (the
# same for every K) and per completed Send (one goroutine handoff), and
# solver-ns per flow-solver step among ~300 and ~90k flows in flight at the same
# event rate (what separates them is cache misses, not flows visited), all at
# 0 allocs/op.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkEngineStep|BenchmarkStep|BenchmarkSimCycleMesh' -benchtime 1x ./internal/sim/... .
	$(GO) test -run xxx -bench 'BenchmarkTimedSleepers' -benchmem -benchtime 50000x ./internal/sim/
	$(GO) test -run xxx -bench 'BenchmarkProcStalledSend|BenchmarkProcSend' -benchmem -benchtime 200000x ./internal/node/
	$(GO) test -run xxx -bench 'BenchmarkSolverStep' -benchmem -benchtime 20000x ./internal/flow/

# bench runs the full-figure wall-clock benchmarks (several minutes).
bench:
	$(GO) test -run xxx -bench 'BenchmarkFigure2Heavy|BenchmarkFigure3Light' -benchtime 1x -timeout 1800s .

# bench-heavy exercises the saturated data path: the Figure 2 heavy-traffic
# experiment plus the per-cycle saturation benchmarks with allocation
# reporting — the B/op columns are the zero-allocation contract.
bench-heavy:
	$(GO) test -run xxx -bench 'BenchmarkFigure2Heavy|BenchmarkSaturatedCycle' -benchmem -benchtime 1x -timeout 1800s .

# benchdiff compares two committed BENCH_<date>.json baselines, failing on
# a >10% ns/op regression: make benchdiff OLD=BENCH_a.json NEW=BENCH_b.json
benchdiff:
	./scripts/benchdiff.sh $(OLD) $(NEW)

# bench-dist gates the multi-process engine: 1/2(/4)-worker runs of the
# same workload must produce byte-identical state traces, on any host. The
# wall-clock ratio to the 1-process run is printed, not asserted. (The
# intra-process ratio, 1 shard vs 2, is bench/'s sim.sharded_speedup.)
bench-dist:
	./scripts/benchdist.sh

# bench-scale smoke-tests the flow engine at 100k+ nodes: two identical
# scale runs must deliver bit-identical packet counts, and the flow fabric
# must clear a simulated node-cycles-per-second floor (default 10M).
# Override the floor with: make bench-scale FLOOR=50000000
bench-scale:
	./scripts/benchscale.sh $(FLOOR)

# bench-locality gates active-set scheduling (DESIGN.md §10):
# BenchmarkIdleFraction's step cost must be sub-linear in total component
# count, BenchmarkTimedSleepers' cost per Tick must not depend on how many
# components sleep on a timer (nor be far from what it is when they are
# parked), and BenchmarkFigure2Heavy must beat the committed pre-active-set
# baseline (BENCH_2026-08-06_zeroalloc.json) by at least 20%, via
# benchdiff.sh with an inverted (negative) regression threshold.
bench-locality:
	./scripts/benchlocality.sh

# bench-fabric gates the modern-fabric scenario pack (DESIGN.md §11): the
# NIFDY vs PFC/DCQCN incast matrix must be bit-identical at 1 vs 2 engine
# shards, and NIFDY must beat PFC's delivered throughput under lossless
# incast by at least RATIO_MIN (default 1.05), with a MIN_PKTS noise floor.
# Override with: make bench-fabric RATIO_MIN=1.10
bench-fabric:
	RATIO_MIN=$(or $(RATIO_MIN),1.05) MIN_PKTS=$(or $(MIN_PKTS),1000) ./scripts/benchfabric.sh

# profdiff prints the top-N flat-cost changes between two CPU profiles of
# the same workload: make profdiff OLD=before.prof NEW=after.prof
profdiff:
	./scripts/profdiff.sh $(OLD) $(NEW) $(or $(N),15)

# baseline regenerates the committed BENCH_<date>.json perf/metrics
# baseline from the reduced-scale experiment suite.
baseline:
	$(GO) run ./cmd/nifdy-bench -json BENCH_$$(date -u +%F).json > /dev/null

clean:
	rm -f *.test *.prof *.out
