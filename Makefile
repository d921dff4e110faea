GO ?= go

.PHONY: check fmt vet build bench-build test race fuzz differential sat-diff cube-diff overapprox-diff chaos bench serve-smoke session-smoke pool-smoke lines

# check is the CI gate: static checks, build (the benchmark module too,
# with its own tests), the full suite under the race detector, short
# fuzz passes over the SMT-LIB parser, the server request decoder and the
# FP word kernel, the incremental-vs-fresh refinement differential under
# -race, the cube-and-conquer differential, the short chaos gate, and
# end-to-end smokes of the staub-serve binary (one-shot solves, the
# stateful session tier, and the peer pool's node-kill drill).
check: fmt vet build bench-build race fuzz differential sat-diff cube-diff overapprox-diff chaos serve-smoke session-smoke pool-smoke

# fmt fails if any file is not gofmt-clean, and prints the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# bench-build compiles, vets and tests bench/, a module of its own that
# `go build ./...` and `go test ./...` never reach although it calls into
# internal/ (its per-layer report reads pipeline.RefineMetricsSnapshot,
# solver.SATMetricsSnapshot and the /stats cache counters).
bench-build:
	cd bench && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

test:
	$(GO) test ./...

# The race detector multiplies the harness experiments' wall-clock
# several-fold, past go test's default 10m per-package timeout.
race:
	$(GO) test -race -timeout 45m ./...

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzParseScript -fuzztime=5s ./internal/smt
	$(GO) test -run='^$$' -fuzz=FuzzDecodeSolveRequest -fuzztime=5s ./internal/server
	$(GO) test -run='^$$' -fuzz=FuzzDIMACS -fuzztime=5s ./internal/sat
	$(GO) test -run='^$$' -fuzz=FuzzOverApproxPipeline -fuzztime=5s ./internal/overapprox
	$(GO) test -run='^$$' -fuzz=FuzzWordArith -fuzztime=5s ./internal/fp

# differential pins the incremental refinement session to the fresh
# per-round reference (same statuses, same widths) and the stateful
# session tier to per-prefix fresh replay (byte-identical verdict
# sequences across the incremental-script corpus, under default and
# non-default refinement strategies), the bit-blaster's one multiplier
# routine to the evaluator and exact arithmetic (bvmul, bvsmulo, bvudiv,
# bvurem and the signed and unsigned 2w-bit products on every operand pair
# at widths 1 to 6, one-shot and in a session round), the bvsmulo guard to
# exact arithmetic (bvsmulo(x, y) and bvsmulo(x, x) on every operand pair
# at widths 1 to 8, one-shot and in a session round), the exhaustive FP
# search's lazy
# candidate enumeration to the eager candidate list (same candidates,
# byte-identical verdicts, models and node counts on translated benchgen
# instances), and intsolver's int64 nonlinear kernel to the big.Rat
# branch-and-prune (same status, model and Stats on the first 25 benchgen
# QF_NIA instances of seed 1 plus the refinement corpus, and on cases
# built to take each exact fallback; -short keeps the reference's ~10 µs
# per node to seconds; plain `go test` runs seeds 1–3), and the FP word
# kernel to the big.Rat path (every exported operation, bit for bit, on a
# corner-case table and a seeded sweep over 21 formats) — all under the
# race detector.
differential:
	$(GO) test -race -count=1 -run 'TestRefinementDifferentialIncrementalVsFresh' ./internal/core
	$(GO) test -race -count=1 -run 'TestSessionMatchesFresh|TestMultiplierExhaustive|TestSMulOExhaustive' ./internal/bitblast
	$(GO) test -race -count=1 -run 'TestSessionDifferential' ./internal/session
	$(GO) test -race -count=1 -run 'TestLazyCandidatesMatchEager|TestSolveMatchesEagerOnBenchgen' ./internal/fpsolver
	$(GO) test -race -short -count=1 -run 'TestKernelMatchesReference|TestKernelFallbacksMatchReference' ./internal/intsolver
	$(GO) test -race -count=1 -run 'TestWordMatchesReference' ./internal/fp

# sat-diff is the CDCL differential gate: random CNF instances against a
# brute-force oracle across every solver configuration (default settings,
# frequent DB reduction, preprocessing, variable elimination),
# SolveAssuming against fresh copies, the activation-literal retirement
# pattern, every learnt clause of random 3-SAT solves checked by reverse
# unit propagation against the clauses before it (a minimizer that drops
# a literal too many fails), and clones solved concurrently with their
# originals (same status, model and Stats; the race detector proves Clone
# copies every array the search writes) — all under the race detector.
sat-diff:
	$(GO) test -race -count=1 -run 'TestSATDiff|TestLearntClausesAreRUP|TestCloneSolvesAlike' ./internal/sat

# cube-diff is the cube-and-conquer differential gate: across the harness
# corpus plus two benchgen instances whose cube run splits (the probe
# decides every harness instance whole), cube-solve must reproduce every
# decided sequential verdict
# byte-identically (strengthening a sequential timeout is the feature),
# and the full result — verdict, model, work — must be byte-identical at
# 1, 2 and 8 cube workers, under the race detector.
cube-diff:
	$(GO) test -race -count=1 -run 'TestCubeDiff' ./internal/cube

# overapprox-diff is the over-approximation soundness gate: every
# definitive verdict the over chain produces across the generated suites
# is replayed against the unbounded oracle at a generous budget (an
# over-approx unsat contradicted by an oracle model fails hard), plus
# the clean zero-flip invariant — enabling the over leg never changes a
# decided portfolio verdict — all under the race detector.
overapprox-diff:
	$(GO) test -race -count=1 -run 'TestOverApproxDifferential' ./internal/engine
	$(GO) test -race -short -count=1 -run 'TestOverLegNeverFlipsCleanVerdicts' ./internal/chaos

# chaos is the short chaos gate: a corpus subset under every fault class
# with fixed seeds, race detector on — no crash, no verdict flip,
# injection counters matching what fired. The full-corpus suite runs with
# the rest of the tests via `race`.
chaos:
	$(GO) test -race -short -count=1 -run 'TestChaos' ./internal/chaos

# serve-smoke boots the real staub-serve on a random port, solves a
# testdata constraint over HTTP, scrapes /metrics, and asserts a clean
# drain on SIGTERM.
serve-smoke:
	$(GO) run ./scripts/servesmoke

# session-smoke boots the real staub-serve and drives one incremental
# conversation through the session tier — create, assert, push, check,
# pop, check, delete — asserting verdicts, staub_session_* metrics, and
# a clean drain.
session-smoke:
	$(GO) run ./scripts/sessionsmoke

# pool-smoke is the node-kill drill against real processes: a 3-node
# peer pool plus a standalone reference, mixed load, one node SIGKILLed
# mid-run — every request answered, every verdict matching standalone,
# survivors drain cleanly.
pool-smoke:
	$(GO) run ./scripts/poolsmoke

# lines prints the non-test Go line count outside bench/, the figure a
# change's net line delta is stated in. It is not part of check.
lines:
	@git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^bench/' | xargs cat | wc -l

# bench runs the staub-serve benchmark (bench/README.md): four workloads,
# end-to-end and per-layer metrics, every verdict oracle-checked. The cube
# tier has no workload there; `go run ./scripts/cubebench` is its
# standalone measurement (BENCH_8.json).
bench:
	bash bench/run.sh
