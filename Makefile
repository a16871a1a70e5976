GO ?= go
STATICCHECK ?= staticcheck
# Pinned staticcheck release: CI installs exactly this version so a new
# upstream release cannot break the build unreviewed. Bump deliberately.
STATICCHECK_VERSION ?= 2025.1.1
FUZZTIME ?= 10s
# Load-smoke knobs: CI runs the full 16x30s profile; local `make check`
# inherits these shorter defaults.
LOADTIME ?= 10s
LOADSESSIONS ?= 8
LOADWORKERS ?= 1
LOADP99 ?= 2s

.PHONY: check vet fmt lint loc surface dupes staticcheck build test race cover fuzz-smoke fuzz-http load-smoke bench-smoke bench-check scoreboard bench smoke crash-smoke cluster-smoke

check: vet fmt lint staticcheck build test race bench-smoke bench-check scoreboard fuzz-smoke load-smoke

vet:
	$(GO) vet ./...

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Project-specific analyzers (cmd/easybolint): determinism and durability
# invariants vet cannot express — map-iteration order, wall-clock and
# global-rand use in replayed packages, raw float ==, dropped errors on
# durability calls, and suppression-directive hygiene. Zero dependencies,
# so it always runs, everywhere.
lint:
	$(GO) run ./cmd/easybolint ./...

# Go line counts per top-level package, non-test and test apart: run it at
# two commits and diff to read a change's size.
loc:
	@./scripts/loc.sh

# Exported identifiers per internal/ package, the other half of a change's
# size; `make surface BASE=<ref>` prints that commit's counts beside them.
surface:
	@GO=$(GO) ./scripts/surface.sh $(BASE)

# File pairs that share runs of code (8-line windows, float64/complex128
# read alike), largest first: a fork of one file into another shows up as a
# number. It gates nothing.
dupes:
	@./scripts/dupes.sh

# Static analysis beyond vet. The tool is not vendored; when it is absent
# (e.g. a hermetic build container) the target skips with a notice instead
# of failing — CI installs it explicitly (pinned) and always runs it.
staticcheck:
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# Every package that spawns goroutines outside tests runs under the race
# detector: the executor slot pool, the ask/tell machine, the session-actor
# service and its WAL syncLoop, the cluster peer layer (heartbeats, forward
# retries, handoffs), parallel AC sweeps (circuit), the multistart
# optimizer's worker pool, the experiment harness, the client retrier
# (cmd/easybo), and the daemon's serve/shutdown paths (cmd/easybod). The
# session's read routes hand other goroutines prefixes of the arrays its
# actor appends to; the test of that contract is schedule-dependent, so it
# runs ten more times, and so does the allocation pin beside it, whose
# counters the race runtime's own goroutines share. So is what the refinement
# queue promises (no search unclaimed while a worker is free, the same bits
# on any schedule, for simplexes and for gradient ascents): twenty. The
# sweep's floor is per worker, so which candidates skip their solve depends
# on the schedule of the ranges; that the result does not runs ten more times.
# The surrogate package spawns nothing, but every goroutine above reads one
# fitted model through predictors of its own. Predictors and views share one
# model, and a view's predictors its busy-set state; Extend belongs to the
# model's owner (the model manager), spends the model it extends and is not a
# concurrent operation. The test of what readers share
# (TestOneModelServesConcurrentReaders) runs here too, and ten more times;
# the pin on what Extend allocates (TestFeatureExtendAllocatesNoFactor) is
# built without -race, whose runtime allocates on its own account.
race:
	$(GO) test -race ./internal/sched/... ./internal/core/... ./internal/serve/... \
		./internal/cluster/... ./internal/loadgen/... ./internal/surrogate/... \
		./internal/circuit/... ./internal/optimize/... ./internal/harness/... \
		./cmd/easybo/... ./cmd/easybod/... ./cmd/easyboload/...
	$(GO) test -race -count 10 -run 'TestReadsShareHistoryWithActor|TestTellCostIndependentOfHistory' ./internal/serve
	$(GO) test -race -count 20 -run 'TestRefineIsWorkConserving|TestMaximizeParallelDeterministicAcrossWorkers' ./internal/optimize
	$(GO) test -race -count 10 -run 'TestSweepFloorChangesNothing' ./internal/core
	$(GO) test -race -count 10 -run 'TestOneModelServesConcurrentReaders' ./internal/surrogate

# Coverage with a ratchet: scripts/coverage.sh fails if the durability
# stack (./internal/serve/...) drops below its recorded floor.
cover:
	GO=$(GO) ./scripts/coverage.sh

# Short fuzz legs over the two untrusted parsers — the WAL frame/record
# decoder plus session scanner, and the netlist parser — so CI keeps
# probing them beyond the seeded corpora. FUZZTIME=2s makes a quick local
# run; each target needs its own invocation (go test allows one -fuzz
# pattern per run).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseRecord$$' -fuzztime $(FUZZTIME) ./internal/serve/wal
	$(GO) test -run '^$$' -fuzz '^FuzzScanSession$$' -fuzztime $(FUZZTIME) ./internal/serve/wal
	$(GO) test -run '^$$' -fuzz '^FuzzScanSessionWithSnapshot$$' -fuzztime $(FUZZTIME) ./internal/serve/wal
	$(GO) test -run '^$$' -fuzz '^FuzzParseValue$$' -fuzztime $(FUZZTIME) ./internal/circuit
	$(GO) test -run '^$$' -fuzz '^FuzzParseNetlist$$' -fuzztime $(FUZZTIME) ./internal/circuit

# The HTTP API under arbitrary requests (FuzzHTTP: never a panic, never a 5xx
# but the documented 503, never a store change behind a 4xx). Its seeds run
# in every go test; this runs the fuzzer itself, locally — it is not in CI.
fuzz-http:
	$(GO) test -run '^$$' -fuzz '^FuzzHTTP$$' -fuzztime 30s ./internal/serve

# Serving-path throughput smoke: first the shed-equivalence test (admission
# control loses no tells, history bitwise-identical to unthrottled), then a
# real easyboload run against an in-process daemon asserting zero errors,
# nonzero cache traffic on its repeated-point workload, a p99 ceiling, and
# that no tell response outgrew a constant-size ack (1 KB),
# then the same harness against a real fsync=always WAL so the group-commit
# serving path is smoke-gated too (distinct seeds, cache off: every tell
# rides the committer).
load-smoke:
	$(GO) test -race -run TestShedEquivalence -v ./cmd/easyboload
	$(GO) run ./cmd/easyboload -sessions $(LOADSESSIONS) -workers $(LOADWORKERS) \
		-duration $(LOADTIME) \
		-assert-max-errors 0 -assert-min-cache-hits 1 -assert-min-asks 1 \
		-assert-max-p99 $(LOADP99) -assert-max-tell-bytes 1024
	$(GO) run ./cmd/easyboload -sessions $(LOADSESSIONS) -workers $(LOADWORKERS) \
		-duration $(LOADTIME) -fsync always \
		-seed-groups $(LOADSESSIONS) -testbench "" -init-points 4096 \
		-assert-max-errors 0 -assert-min-asks 1 -assert-max-tell-bytes 1024

# Run each hot-path go-test benchmark once, so a panic or a compile error in
# a bench file fails CI loudly. These are a developer's microscope: no number
# they print is committed or compared — benchmark/ is the only thing in the
# repository that turns time into a verdict (DESIGN.md §8.3).
bench-smoke:
	$(GO) test -run XXX -bench 'GPExtend|GPRefit|Hallucinate' -benchtime 1x .
	$(GO) test -run XXX -bench 'SurrogateExtend|SurrogatePredict|PredictBatch|PredictGrad|Refine' -benchtime 1x ./internal/surrogate/
	$(GO) test -run XXX -bench 'FitHyper' -benchtime 1x ./internal/gp/
	$(GO) test -run XXX -bench 'SolveLowerMulti|CholeskyInverse|RankUpdate' -benchtime 1x ./internal/linalg/
	$(GO) test -run XXX -bench 'NewtonIteration' -benchtime 1x ./internal/circuit/
	$(GO) test -run XXX -bench 'EvalSparse$$|ACSweepSparse|TranStepSparse|EvalDense$$|ACSweepDense|TranStepDense' -benchtime 1x ./internal/testbench/
	$(GO) test -run XXX -bench 'LogAppend|Recover' -benchtime 1x ./internal/serve/...

# The repo benchmark (BENCHMARK.json) lives in its own module under
# benchmark/, outside `go test ./...`: run its tests, then five seconds each
# of the simulation kernel (de-classe: the only CI step that runs it for more
# than one iteration), of the workload that exercises the surrogate and the
# acquisition maximizer end to end — untraced (easybo.NewLoop) and traced
# (the benchmark's own hand copy of NewLoop's construction, so the two are compared on every run) — and
# of the serving envelope alone (serve-wal: no model, a real WAL, a restart
# whose status body must match byte for byte) and of the whole serving stack
# with a restart replay. A run checks that every block walks the same
# history digest and prints "correct":true only then; scripts/benchdigest.sh
# also holds that digest (and best_y) to the one scripts/bench_digests.txt
# records for the workload at seed 1, so a change that moves a history
# without meaning to fails here.
# benchmark/run.sh is what a performance claim is measured with (30 s per
# workload; see benchmark/README.md).
bench-check:
	cd benchmark && $(GO) test ./...
	./scripts/benchdigest.sh de-classe 0
	./scripts/benchdigest.sh bo-opamp 0
	./scripts/benchdigest.sh bo-opamp 1
	./scripts/benchdigest.sh serve-wal 0
	./scripts/benchdigest.sh serve-model 0

# The paper-fidelity scoreboard (DESIGN.md §15): every table and figure of
# the paper on -quick budgets at five seeds, as one JSON board, with the
# paper's qualitative claims asserted on it (repro -check: async saves wall
# time and more so as B grows, EasyBO no worse than pBO/pHCBO, penalisation
# no worse than none, sequential EasyBO near DE at a fraction of its
# simulations, graceful degradation 5 → 15); then the three-seed board
# against its committed golden, byte for byte. The digests above say whether
# histories moved; this says whether a change that moves them still
# reproduces the paper. `repro -compare A.json B.json` pairs two boards seed
# by seed.
# The board, its CSVs and the run's text land in git-ignored .scoreboard/.
SCOREDIR ?= .scoreboard
scoreboard:
	mkdir -p $(SCOREDIR)
	$(GO) run ./cmd/repro -all -quick -runs 5 -out $(SCOREDIR) \
		-json $(SCOREDIR)/board.json -check $(SCOREDIR)/board.json > $(SCOREDIR)/board.txt \
		|| { grep -E '^(ok  |FAIL) |^repro:' $(SCOREDIR)/board.txt; exit 1; }
	@tail -1 $(SCOREDIR)/board.txt
	$(GO) test -run TestQuickBoardGolden ./cmd/repro

bench:
	$(GO) test -run XXX -bench 'GPExtend|GPRefit|Hallucinate|SuggestHotPath' -benchtime 20x .

# Build every cmd/* and examples/* binary, run each example on a tiny
# budget, and drive a live easybod daemon through an ask/tell round trip,
# so binaries and examples cannot rot unnoticed.
smoke:
	GO=$(GO) ./scripts/smoke.sh

# Kill-9 fault injection: the Go harness SIGKILLs a real easybod subprocess
# mid-session (fixed points for every fsync policy, plus an async racing
# kill) and requires the recovered history to be bitwise identical to an
# uninterrupted run; the shell loop then does the same through curl for
# every fsync policy.
crash-smoke:
	$(GO) test -run TestCrashRecovery -v ./cmd/easybod
	GO=$(GO) FSYNC=always ./scripts/crashloop.sh
	GO=$(GO) FSYNC=interval ./scripts/crashloop.sh
	GO=$(GO) FSYNC=off ./scripts/crashloop.sh

# Multi-node fault injection: the Go harness boots a 3-node easybod cluster
# over a shared -data-dir, drives 200 concurrent sessions through arbitrary
# nodes, SIGKILLs a random node mid-traffic, and requires every completed
# history to be bitwise identical to a single-node reference run (no
# acknowledged tell lost); the shell loop repeats the kill through curl for
# every fsync policy, healing the revived node back in.
cluster-smoke:
	$(GO) test -run TestCluster -v ./cmd/easybod
	GO=$(GO) FSYNC=always ./scripts/clusterloop.sh
	GO=$(GO) FSYNC=interval ./scripts/clusterloop.sh
	GO=$(GO) FSYNC=off ./scripts/clusterloop.sh
