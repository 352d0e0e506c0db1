# Convenience targets. Everything is plain `go` underneath.

GO ?= go

.PHONY: check build fmt test vet perfbench lint-spans lint-alloc race cover fuzz gelu-sweep bench profile experiments experiments-full corpora clean

# The default pre-merge gate: compile, formatting, lint, unit tests, the
# benchmark harness, the race pass over the concurrent serving path (chaos
# suite included), and the coverage floor.
check: build fmt vet lint-spans lint-alloc test perfbench race cover

# Formatting gate: fails listing every file gofmt would rewrite.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# perfbench/ is a nested module, so the root build and tests never compile
# it; vet and test it here so a change to an internal API it imports fails
# the gate rather than the benchmark run.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Span hygiene: every obs.StartSpan must have a matching End in the same
# function — a leaked span never reaches the trace recorder.
lint-spans:
	$(GO) run ./cmd/lintspans

# Hot-path allocation hygiene: internal/autodiff, internal/core (home of
# the scorer's forward loop), internal/gnn and internal/infer must use the
# Into/AddInto product kernels; the allocating conveniences (tensor.MatMul &
# friends) fail the build there.
lint-alloc:
	$(GO) run ./cmd/lintalloc

build:
	$(GO) build ./...

# The 386 lines build and test the portable kernels that amd64 replaces
# with SSE assembly: the float32 strips (internal/tensor/f32_other.go), run
# by the tensor and lm tests, and the float64 product leaves
# (internal/tensor/f64_other.go), run by the tensor tests and by the
# autodiff and gnn tests through EdgeMix and the HeteroConv gradient check.
# The GODEBUG line runs the bit goldens and the sampled GELU check on
# amd64's non-FMA math.Exp, the branch CPUs without AVX and FMA take (the
# first line checks the other on CPUs that have them). The -cpu 1 line
# reruns the packages whose tests race background goroutines (re-score
# runs, shadow scoring, the watchdog, the worker pool) on one CPU, where a
# goroutine a request starts mostly waits until the test blocks: a test
# that reads its state too early fails
# there every time instead of now and then.
test:
	$(GO) test ./...
	GOARCH=386 $(GO) test ./internal/tensor/ ./internal/lm/ ./internal/autodiff/ ./internal/gnn/
	GODEBUG=cpu.fma=off $(GO) test -count=1 -run '^(TestTrainGolden|TestEncodeGolden|TestGELUSample)$$' ./internal/core/ ./internal/lm/
	$(GO) test -count=1 -cpu 1 ./internal/server/ ./internal/rescore/ ./internal/infer/ ./internal/obs/... ./internal/discovery/ ./internal/par/

vet:
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...

# Race-detect the concurrent paths: the staged inference engine, the
# data-parallel trainer (worker-count bit-identity + train chaos suites live
# in internal/core) and its optimizer step (internal/nn), the shared worker
# pool, the sharded encoder cache, the per-graph caches the GNN reads, the
# feature extractor's pooled scratch, the fault-injection hooks, and the
# HTTP server — this is what runs the
# cancellation/shedding/shutdown chaos suites under the race detector.
# -p 1 serializes the packages: the chaos suites assert wall-clock drain
# bounds, and running them alongside the (CPU-heavy) training race tests on
# a small machine starves those timers into flakes. The second line repeats
# the server's swap and re-score interleaving tests five times: one pass
# samples too few schedules of a promote or rollback racing a re-score, and
# the third the encoder's layers running on eight goroutines over one
# scratch pool ten times.
race:
	$(GO) test -race -p 1 ./internal/core/... ./internal/nn/... ./internal/infer/... ./internal/par/... ./internal/lm/... ./internal/graph/... ./internal/features/... ./internal/server/... ./internal/faultinject/... ./internal/obs/... ./internal/discovery/... ./internal/rescore/...
	$(GO) test -race -count=5 -run '^(TestSwapUnderFire|TestRescoreStartSerializesWithPromote|TestPromoteCancelsRescore|TestRollbackCancelsRescore|TestModelsStatusDuringPromoteEpilogue)$$' ./internal/server/
	$(GO) test -race -count=10 -run '^TestEncoderConcurrentColdEncode$$' ./internal/lm/

# Total statement coverage floor, last raised when the watchdog/flight
# recorder PR landed; `make cover` fails if the tree ever drops below it.
COVER_MIN = 87.7

cover:
	$(GO) test -coverprofile=coverage.out ./...
	@$(GO) tool cover -func=coverage.out | awk -v min=$(COVER_MIN) \
		'/^total:/ { pct = $$3; sub(/%/, "", pct); \
		   printf "total coverage %s (floor %s%%)\n", $$3, min; \
		   if (pct + 0 < min + 0) { print "FAIL: coverage below floor"; exit 1 } }'

# Short-budget fuzz pass over every fuzz target in the tree. go test accepts
# a single -fuzz pattern per invocation, so each package's targets are
# listed with `go test -list` and run one at a time: a new target joins
# without editing this file. The committed seed corpora under
# testdata/fuzz/ run in the ordinary `make test` too.
# -fuzzminimizetime 0s spends the budget fuzzing: Go's default minimizes
# each new interesting input for up to 60 s, which ate the whole 10 s.
# A failing input is still reported and saved under testdata/fuzz/.
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s -fuzzminimizetime 0s $$pkg; \
		done; \
	done

# The exhaustive proof behind the encoder's fast GELU: every one of the
# 2^32 float32 inputs against geluF32, once per math.Exp branch (about a
# minute each on 2 vCPUs). `make test` checks every 4099th input.
gelu-sweep:
	$(GO) test -count=1 -timeout 30m -v -run '^TestGELUSweep$$' ./internal/lm/ -gelu-sweep
	GODEBUG=cpu.fma=off $(GO) test -count=1 -timeout 30m -v -run '^TestGELUSweep$$' ./internal/lm/ -gelu-sweep

# One quick-scale pass per paper table/figure plus component micro-benches.
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x ./...

# CPU profile of one training epoch (the substrate's hottest loop):
# emits cpu.pprof + the train-epoch test binary for
# `go tool pprof pythagoras.test cpu.pprof`.
profile:
	$(GO) test -run '^$$' -bench '^BenchmarkTrainEpoch$$/^workers1$$' -benchtime=3x \
		-cpuprofile cpu.pprof -o pythagoras.test .
	@echo "wrote cpu.pprof — inspect with: $(GO) tool pprof pythagoras.test cpu.pprof"

# Reproduce the paper's evaluation at reduced scale (minutes).
experiments:
	$(GO) run ./cmd/experiments -exp all -scale reduced -out paper_results.txt

# Paper-scale corpora and 5 seeds (hours of single-core CPU).
experiments-full:
	$(GO) run ./cmd/experiments -exp all -scale full -out paper_results_full.txt

# Generate both corpora as CSV trees under ./corpora.
corpora:
	$(GO) run ./cmd/datagen -corpus both -out ./corpora

clean:
	rm -rf corpora pythagoras-model.bin cpu.pprof pythagoras.test
