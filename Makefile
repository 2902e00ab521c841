GO ?= go

.PHONY: all build test race vet lint check bench scaling clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	$(GO) vet -copylocks -loopclosure ./...

# lint runs the project's own analyzer suite (see DESIGN.md, "Checked
# invariants"). CI fails on any diagnostic; suppress a justified finding
# with `//lint:ignore gpflint/<name> reason`.
lint:
	$(GO) run ./cmd/gpflint ./...

check: build vet lint test

# bench runs the repository's benchmark (bench/README.md, BENCHMARK.json):
# every workload on seed 42; exits non-zero if any operation failed.
bench:
	bash bench/run.sh

# scaling regenerates the measured-vs-predicted multi-process curve quoted in
# EXPERIMENTS.md (W = 1, 2, 4, 8 worker processes over the TCP transport next
# to the simulator oracle's prediction).
scaling:
	$(GO) run ./cmd/gpf-bench -exp scaling

clean:
	$(GO) clean ./...
