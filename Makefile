GO ?= go

.PHONY: all vet vet-portable build test race bench bench-smoke fuzz-smoke microbench calibrate collective-bench train-bench check perfbench-test

all: vet build test

vet:
	$(GO) vet ./...

# vet-portable vets an arm64 build, which has no assembly kernels: the
# portable (pure-Go) kernels must keep building on their own.
vet-portable:
	GOARCH=arm64 $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the CI gate: static analysis (amd64, which also checks the
# assembly against its Go declarations, and arm64, which builds only the
# portable kernels), full build, race-enabled tests (which run the portable
# kernels on amd64 too).
check: vet vet-portable build race

# perfbench-test vets and tests the end-to-end benchmark, a separate Go
# module that `go test ./...` at the root does not reach. Its tests include
# the traced-equals-untraced dense-bsp-mem digest check, the end-to-end
# guard that BSP training stays bitwise deterministic.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench refreshes both machine-readable benchmark reports
# (BENCH_collective.json and BENCH_train.json).
bench: collective-bench train-bench

# bench-smoke runs a tiny end-to-end overlap benchmark (real BSP workers over
# TCP, multi-bucket reducer pipeline, bit-identity asserted) without writing
# any JSON — a seconds-long CI check that the benchmark harness still works.
bench-smoke:
	$(GO) run ./cmd/rnabench -bench-smoke

# fuzz-smoke runs each fuzz target for a short budget — enough to cover its
# seeded corpus plus a burst of mutations, quick enough for CI: the v1 wire
# decoders (header truncations, forged fields, hello garbage,
# parameter-server push/pull/ack frames with packed mode<<24|chunk tags),
# the shard ownership tables, the checkpoint decoder, the batch-major
# MLP backprop against its frozen per-example reference, and the assembly
# tensor kernels against their portable twins.
fuzz-smoke:
	$(GO) test ./internal/transport/ -run '^$$' -fuzz '^FuzzReadMessage$$' -fuzztime 20s
	$(GO) test ./internal/transport/ -run '^$$' -fuzz '^FuzzReadHello$$' -fuzztime 10s
	$(GO) test ./internal/collective/ -run '^$$' -fuzz '^FuzzShardOffsets$$' -fuzztime 5s
	$(GO) test ./internal/model/ -run '^$$' -fuzz '^FuzzReadCheckpoint$$' -fuzztime 5s
	$(GO) test ./internal/model/ -run '^$$' -fuzz '^FuzzMLPGradientMatchesReference$$' -fuzztime 10s
	$(GO) test ./internal/tensor/ -run '^$$' -fuzz '^FuzzKernelsMatchPortable$$' -fuzztime 10s

# microbench runs the collective, kernel (assembly and portable), optimizer,
# model and engine micro-benchmarks interactively. The BenchmarkRingAllReduce
# pattern also selects BenchmarkRingAllReduceStep: one BSP synchronization at
# the dense-bsp-mem shape, replicated AllReduce-then-step vs the fused ring
# step.
microbench:
	$(GO) test -run xxx -bench 'BenchmarkRingAllReduce|BenchmarkPartialRingAllReduce' -benchmem ./internal/collective/
	$(GO) test -run xxx -bench BenchmarkTensorKernels -benchmem ./internal/tensor/
	$(GO) test -run xxx -bench BenchmarkSGDStep -benchmem ./internal/opt/
	$(GO) test -run xxx -bench BenchmarkModel -benchmem ./internal/model/
	$(GO) test -run xxx -bench BenchmarkTrainsim -benchmem ./internal/trainsim/

# collective-bench regenerates the machine-readable BENCH_collective.json
# (per-algorithm sweep + crossover table). Run `make calibrate` first to
# drive the auto rows with constants fitted on this machine.
collective-bench:
	$(GO) run ./cmd/rnabench -collective -collective-out BENCH_collective.json

# calibrate fits the per-algorithm alpha-beta cost model on this machine and
# persists it for the auto-selector.
calibrate:
	$(GO) run ./cmd/rnabench -calibrate -calibration CALIBRATION_collective.json

# train-bench regenerates the machine-readable BENCH_train.json.
train-bench:
	$(GO) run ./cmd/rnabench -train -train-out BENCH_train.json
