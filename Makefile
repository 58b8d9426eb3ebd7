GO ?= go

.PHONY: fmt build test vet lint lint-budget lintdiff loc race check check-deep bench-check bench-smoke bench bench-locality profdiff clean

# fmt fails if any file is not gofmt-formatted, the check CI runs first.
fmt:
	test -z "$$(gofmt -l .)"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs nifdy-lint, the domain-specific analyzer suite (DESIGN.md §7):
# determinism (mapiter, wallclock), zero-allocation (hotalloc), two-phase
# discipline (latchphase), pool ownership (poolsafe), enum exhaustiveness
# (kindswitch), and shard safety (shardsafe) over the whole module,
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
check: fmt build vet lint test

# check-deep runs the deep correctness sweep: the invariant-monitor
# acceptance matrix and mutation suite, a scaled-up randomized
# cross-configuration fuzz sweep, and native fuzzing of ring.Deque, of the
# flow solver's share-class store (remainder FIFOs plus a 4-ary heap) and of
# the flow solver against its reference. The time budget caps the add-on stages:
# make check-deep MINUTES=15
check-deep:
	./scripts/checkdeep.sh $(MINUTES)

# race exercises the concurrency-heavy packages — the engine's worker
# pool and quiescence protocol, the wires' cross-shard staging and the
# routers' arrival boards (a cross-shard wire's board word is written by the
# stepping goroutine at the window boundary and read by the consumer's shard
# in the next window), the harness's concurrent simulations, and the
# processors' step machines, which shard workers call in sharded runs, and
# the closure adapter's goroutine handoffs, and the NICs that wake them —
# under the race detector.
race:
	$(GO) test -race -count=1 -timeout 3600s ./internal/sim/... ./internal/link/... ./internal/router/... ./internal/flow/... ./internal/harness/... ./internal/node/... ./internal/nic/... ./internal/core/...

# bench-check runs the benchmark module's own tests (bench/ is a module of
# its own, so `go test ./...` at the root does not see it): the smoke over
# every BENCHMARK.json workload, the -compare verdicts, and the equivalence
# of bench's hand-mirrored NIC/Proc wiring with harness.Build's.
bench-check:
	$(GO) test -C bench ./...

# bench-smoke runs one iteration of the engine microbenchmarks and the
# cheap end-to-end cycle benchmark: enough to catch gross regressions in
# seconds. The saturated-cycle, timer-wheel, processor and flow-solver
# benchmarks run longer, with -benchmem: bytes and allocations per 1,000
# saturated cycles for each NIC kind (the zero-allocation contract hotalloc
# polices statically; the residue is pool cold-misses, some 8 to 24 allocs),
# then, at 0 allocs/op, ns per Tick among 1k and 64k timed sleepers (the two
# must agree), ns per Send stalled K cycles (the same for every K) and per
# completed Send (a closure's goroutine handoff, or a machine's Step), and
# solver-ns per flow-solver step among ~300 and ~90k flows in flight at the
# same event rate (what separates them is cache misses, not flows visited).
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkEngineStep|BenchmarkStep|BenchmarkSimCycleMesh' -benchtime 1x ./internal/sim/... .
	$(GO) test -run xxx -bench 'BenchmarkSaturatedCycle' -benchmem -benchtime 100x .
	$(GO) test -run xxx -bench 'BenchmarkTimedSleepers' -benchmem -benchtime 50000x ./internal/sim/
	$(GO) test -run xxx -bench 'BenchmarkProcStalledSend|BenchmarkProcSend' -benchmem -benchtime 200000x ./internal/node/
	$(GO) test -run xxx -bench 'BenchmarkSolverStep' -benchmem -benchtime 20000x ./internal/flow/

# bench is the one measuring entry point: every BENCHMARK.json workload
# through bench/run.sh, untraced (speed, setup, memory, simulated throughput,
# each workload's own floor checks) and traced (the per-layer metrics and
# rigs), into one result set. Two sets — e.g. a parent checkout's and this
# one's — are judged by `bash bench/run.sh -compare a.json b.json`;
# bench/README.md has the rest.
bench:
	bash bench/run.sh -all -out bench/out/all.json

# bench-locality gates active-set scheduling (DESIGN.md §9):
# BenchmarkIdleFraction's step cost must be sub-linear in total component
# count, and BenchmarkTimedSleepers' cost per Tick must not depend on how
# many components sleep on a timer, nor be far from what it is when they are
# parked. Per-size medians over five rounds; the thresholds are in the script.
bench-locality:
	./scripts/benchlocality.sh

# profdiff prints the top-N (default 15) functions by flat-cost change
# between two CPU profiles of the same workload, each normalized to its own
# total, as pprof's diff table: make profdiff OLD=before.prof NEW=after.prof
profdiff:
	$(GO) tool pprof -top -nodecount $(or $(N),15) -normalize -diff_base=$(OLD) $(NEW)

clean:
	rm -f *.test *.prof *.out
