# Single source of the verify recipe: CI (.github/workflows/ci.yml) and
# humans run the same targets.

GO ?= go

# The root-package micro benchmark set (micro_bench_test.go +
# serve_bench_test.go); bench-json archives exactly these so the perf
# trajectory is comparable PR to PR.
MICROBENCH = ^Benchmark(InferToExit1|InferToExit3|InferToExit3Int8Fast|InferBatched1|InferBatched4|InferBatched16|InferBatched1Int8Fast|InferBatched4Int8Fast|InferBatched16Int8Fast|ServerInferThroughput|LegacyInferToExit3|IncrementalResume|LegacyIncrementalResume|PlanCompile|PlanCompileInt8Fast|TrainStep|ApplyCompressionPolicy|QuantizeWeights8bit|QTableUpdate|SolarTraceGeneration|SynthCIFARSample|EngineRunToCompletion|FullSimulationEpisode|FleetStep|FleetShard)$$
BENCH_JSON ?= BENCH_pr19.json

# The hot-path subset bench-smoke gates in CI: a kernel regression that
# breaks inference or the episode loop fails the build.
SMOKEBENCH = ^Benchmark(InferToExit1|InferToExit3|InferToExit3Int8Fast|IncrementalResume|FullSimulationEpisode)$$

.PHONY: all build cross test test-cpu race bench bench-smoke bench-json fuzz-smoke artifact-check infer-smoke crash-smoke fleet-smoke chaos-soak fmt fmt-check lint ehlint shellcheck staticcheck clean

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## cross: build every package for arm64 and vet the kernel packages
## there, so the pure-Go kernels that hosts without the amd64 assembly
## run keep compiling (stock go vet on amd64 runs asmdecl over the
## assembly's Go declarations)
cross:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/tensor/ ./internal/plan/

## test: run the full test suite
test:
	$(GO) test ./...

## test-cpu: run the whole suite once at GOMAXPROCS 1, then the
## batched-executor, micro-batching-queue, fleet, Q-learning,
## intermittent-engine, runtime and energy packages at GOMAXPROCS 1 and
## 4, twice each, so a single-core machine cannot hide a concurrency bug
## in the multi-lane walk, the dispatcher or the fleet's sharding, and
## state cannot leak between re-runs of the episode kernel or the
## harvest loop. The second run is narrow on purpose: the write-once
## registries are process globals, so a whole-suite -count=2 pass fails
## on "already registered"
test-cpu:
	$(GO) test -cpu 1 ./...
	$(GO) test -count=2 -cpu 1,4 ./internal/plan/ ./internal/batch/ ./internal/fleet/ ./internal/qlearn/ ./internal/intermittent/ ./internal/core/ ./internal/energy/

## race: run the full test suite under the race detector
race:
	$(GO) test -race ./...

## bench: one-iteration benchmark smoke pass (compiles and runs every benchmark once)
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

## bench-smoke: run the inference/episode hot-path benchmarks exactly once
bench-smoke:
	$(GO) test -run='^$$' -bench='$(SMOKEBENCH)' -benchtime=1x -benchmem .

## bench-json: run the micro benchmarks (with allocation metrics) and
## archive them as $(BENCH_JSON) (two steps, no pipe: a failing benchmark
## run must fail the target, not hand benchjson an empty stream)
bench-json:
	$(GO) test -run='^$$' -bench='$(MICROBENCH)' -benchtime=100ms -benchmem . > $(BENCH_JSON).bench.out
	$(GO) run ./cmd/benchjson < $(BENCH_JSON).bench.out > $(BENCH_JSON)
	@rm -f $(BENCH_JSON).bench.out
	@echo "wrote $(BENCH_JSON)"

## fuzz-smoke: run each fuzz target for 20 s: the /v1/infer
## single-pass decoder against encoding/json, the artifact decoder, the
## integer pipeline's fixed-point requantization (requantFix31's exact
## (mul, shift) pair and the packed GEMM's fused epilogue against
## math/big), and the AVX2 GEMM kernels against the pure-Go float
## kernel and an int32 reference (it skips on CPUs without AVX2).
## go test -fuzz takes one target per run.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeInferRequest$$' -fuzztime=20s ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=20s ./internal/artifact
	$(GO) test -run='^$$' -fuzz='^FuzzRequantFix31$$' -fuzztime=20s ./internal/plan
	$(GO) test -run='^$$' -fuzz='^FuzzGemmKernels$$' -fuzztime=20s ./internal/tensor

## artifact-check: decode the checked-in golden deployment artifact
## (wire-format gate: drift without a deliberate version bump fails) and
## build+vet every example program, which would otherwise only be
## covered while ./... expansion happens to include them
artifact-check:
	$(GO) test -run 'TestGoldenArtifact' .
	$(GO) build ./examples/...
	$(GO) vet ./examples/...

## infer-smoke: boot the real ehserved daemon, upload the golden
## artifact, POST one /v1/infer request, and assert the decoded
## prediction — the end-to-end gate on the online serving path
infer-smoke:
	./scripts/infer_smoke.sh

## crash-smoke: SIGKILL the real ehserved daemon mid-grid, restart it on
## the same -data-dir, and assert the resumed job's final result
## document is byte-identical to an uninterrupted run's — the
## crash-recovery gate
crash-smoke:
	./scripts/crash_smoke.sh

## fleet-smoke: SIGKILL the real ehserved daemon mid-fleet-job, restart
## it on the same -data-dir, and assert the resumed fleet's final result
## document is byte-identical to an uninterrupted run's — the fleet
## crash-recovery gate
fleet-smoke:
	./scripts/fleet_smoke.sh

## chaos-soak: hammer a server armed with a seeded fault-injection spec
## for 30 wall-clock seconds under the race detector; every response
## must stay within the error taxonomy and the daemon must stay healthy
chaos-soak:
	CHAOS_SOAK_SECONDS=30 $(GO) test -race -run TestChaosSoak -v ./internal/serve

## fmt: rewrite sources with gofmt
fmt:
	gofmt -w .

## fmt-check: fail if any file is not gofmt-clean
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

## lint: static analysis — stock go vet, the repo's own ehlint analyzer
## suite (run through go vet's -vettool protocol so cmd/go caches
## results per package), and shellcheck over scripts/ when installed
lint: ehlint shellcheck
	$(GO) vet ./...

## ehlint: the five repo-invariant analyzers (internal/lint) over the
## whole tree, driven by go vet so analysis is unit-at-a-time and cached
ehlint:
	$(GO) build -o bin/ehlint ./cmd/ehlint
	$(GO) vet -vettool=$(abspath bin/ehlint) ./...

## shellcheck: lint shell scripts; skipped with a notice when the tool
## is not installed (CI has it, minimal dev containers may not)
shellcheck:
	@if command -v shellcheck >/dev/null 2>&1; then \
		shellcheck scripts/*.sh; \
	else \
		echo "shellcheck not installed; skipping script lint"; \
	fi

## staticcheck: deeper static analysis (CI installs honnef.co staticcheck;
## locally: go install honnef.co/go/tools/cmd/staticcheck@latest)
staticcheck:
	staticcheck ./...

## ci: everything the CI workflow gates on
ci: fmt-check lint build cross test-cpu race fuzz-smoke bench artifact-check infer-smoke crash-smoke fleet-smoke

clean:
	$(GO) clean ./...
