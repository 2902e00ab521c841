GO ?= go

.PHONY: all build test race vet check bench figures scaling clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race skips the three wall-clock ratio gates, which under the race detector
# measure its overhead; `make test` runs them.
race:
	$(GO) test -race -skip '^(TestFig10ScalingShape|TestFig11StageComparisons|TestTable5Efficiencies)$$' ./...

vet:
	$(GO) vet ./...

check: build vet test

# bench runs the repository's benchmark (bench/README.md, BENCHMARK.json):
# every workload on seed 42; exits non-zero if any operation failed.
bench:
	bash bench/run.sh

# figures regenerates every paper table and figure quoted in EXPERIMENTS.md
# (the raw `-exp all` block) in one invocation; CI runs the same target.
figures:
	$(GO) run ./cmd/gpf-bench -exp all

# scaling regenerates the measured-vs-predicted multi-process curve quoted in
# EXPERIMENTS.md (W = 1, 2, 4, 8 worker processes over the TCP transport next
# to the simulator oracle's prediction).
scaling:
	$(GO) run ./cmd/gpf-bench -exp scaling

clean:
	$(GO) clean ./...
