GO ?= go

.PHONY: all build test vet race bench bench-check bench-kernels bench-step bench-residue bench-draw bench-gather bench-workers bench-rollout bench-replay cluster-smoke chaos-smoke experiments-small experiments-full clean

all: build vet test

build:
	$(GO) build ./...

# The second line builds and vets internal/tensor's non-amd64 stub; the
# third vets internal/rowmem's files for a platform with neither transparent
# huge pages nor the prefetch assembly, and the ring built on them; the
# fourth holds the kernels' assembly to one arithmetic per operation: the
# product step macros fused and nothing else fused but the packed
# exponential, which has them where math.Exp has them (scripts/fma_guard.sh,
# DESIGN.md §7).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./... && GOARCH=arm64 $(GO) vet ./internal/tensor/
	GOOS=darwin GOARCH=arm64 $(GO) vet ./internal/rowmem/ ./internal/expstore/
	bash scripts/fma_guard.sh

# Tier-1 is `go build ./... && go test ./...`; bench/ is outside that module,
# so the target adds its own vet and tests (bench-check) to it.
test: bench-check
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One testing.B benchmark per paper table/figure, plus substrate benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# bench/ is its own module (the repository benchmark, see BENCHMARK.json), so
# `go build ./... && go test ./...` never compiles it: this is what notices
# an internal/ API change that breaks it.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The three matrix products in GFLOP/s on each body this CPU can run (go,
# avx2, avx512 — one column each) at the shapes an update and a rollout step
# run them at, the output heads included; where the
# multipliers are a hidden layer's output, dense (the plain name: what a
# change to the zero-skip must not slow), /halfzero and /trained. The bodies
# take turns rep by rep on the same operands, so host drift hits all alike;
# ten counts, reported as q1 / median / q3 per body: the one-line
# before/after for a kernel change. Then, dense only, the 24-agent critic's
# first layer (1024 x 2472 x 64), five counts of five calls: 300 would take
# minutes on the Go body.
bench-kernels:
	( $(GO) test -run '^$$' -bench '^BenchmarkKernels$$' -cpu 1 -benchtime 300x -count 10 ./internal/tensor; \
	  $(GO) test -run '^$$' -bench '^BenchmarkKernelsN24$$' -cpu 1 -benchtime 5x -count 5 ./internal/tensor ) | python3 scripts/bench_quartiles.py

# One rollout.Engine.Step of the loop's actor (8 envs x 3 predators into a
# packing sink) with its four terms alone — the batched forwards, one agent's
# block of Gumbel draws, one env's physics step, one packed row — and
# tensor.Log (at 5, 40 and 1024 elements) and tensor.Exp (at 5, 40 and 5120)
# in ns per element on each body; q1/median/q3 of ten counts each. For a
# before/after, build the parent's test binary too and alternate the two
# (SKILL.md, "Comparing kernels").
bench-step:
	( $(GO) test -run '^$$' -bench '^BenchmarkEngineStep$$' -cpu 1 -benchtime 20000x -count 10 ./internal/rollout; \
	  $(GO) test -run '^$$' -bench '^Benchmark(Log|Exp)$$' -cpu 1 -benchtime 300x -count 10 ./internal/tensor ) | python3 scripts/bench_quartiles.py

# What an update does besides its products: one agent's target softmax
# (1024 rows of five logits into a view of the joint input) in ns per
# element on each body, and one learn-local draw's baseline gather (three
# agents' 1024 uniform rows from 65 536 into the joint inputs) in ns per
# row; q1/median/q3 of ten counts each.
bench-residue:
	( $(GO) test -run '^$$' -bench '^BenchmarkSoftmaxRows$$' -cpu 1 -benchtime 300x -count 10 ./internal/tensor; \
	  $(GO) test -run '^$$' -bench '^BenchmarkBufferGatherAll$$' -cpu 1 -count 10 ./internal/replay ) | python3 scripts/bench_quartiles.py

# A fabric draw's selection: one 1024-index uniform FillIndices over
# fabric-sample's 131 072 rows against the math/rand expansion it reproduces
# (ns and allocs per draw), and View.Map on a balanced and a trimmed
# two-group view (ns per index); q1/median/q3 of ten counts each.
bench-draw:
	( $(GO) test -run '^$$' -bench '^BenchmarkFillIndices$$' -cpu 1 -count 10 ./internal/replay; \
	  $(GO) test -run '^$$' -bench '^BenchmarkViewMap$$' -cpu 1 -count 10 ./internal/expshard ) | python3 scripts/bench_quartiles.py

# Uniform 1024-row gathers from a 245 MB ring, in ns/row, on base pages and
# on the huge-page mapping, by the naive loop and by the prefetching gather
# (taking turns draw by draw, so host drift hits both), beside simcache's
# dTLB miss rate for the same index trace at each page size. Compare the
# medians of the ten counts (EXPERIMENTS.md, "Row memory").
bench-gather:
	$(GO) test -run '^$$' -bench '^BenchmarkRingGather$$' -cpu 1 -benchtime 1000x -count 10 ./internal/expstore

# One worker against the per-agent pool at 3/6/12/24 agents, batch 1024: ten
# alternating pairs of 0.5 s + 2 s windows (~5 min); rewrites BENCH_update.json.
bench-workers:
	$(GO) test -run '^$$' -bench UpdateWorkersSweep -benchtime 10x -timeout 30m .

# Vectorized-rollout sweep (env count × acting mode); writes BENCH_rollout.json.
bench-rollout:
	$(GO) test -run '^$$' -bench RolloutVec -benchtime 200ms .

# Replay sample-path sweep (plan × batch × local/remote/pipelined); writes
# BENCH_replay.json.
bench-replay:
	$(GO) test -run '^$$' -bench ExpServeSample -benchtime 200ms .

# Five-process full-loop smoke: replayd + policyd + two actors + learner,
# race-instrumented, asserting ≥2 policy hot-swaps per actor. The same run
# captures /tracez from every process, merges them with marl-trace, and
# gates on ≥1 trace spanning ≥4 processes.
cluster-smoke:
	bash scripts/cluster_smoke.sh

# Three-process chaos smoke: replayd SIGKILLed under a spooling actor and a
# learner, then restarted; asserts the learner completes with zero experience
# loss, empty spools and a clean SIGTERM drain. The fault schedules behind it
# run in process: go test -run FaultSchedules .
chaos-smoke:
	bash scripts/chaos_smoke.sh

# Regenerate every paper table/figure (see EXPERIMENTS.md).
experiments-small:
	$(GO) run ./cmd/marl-bench -exp all -scale small

experiments-full:
	$(GO) run ./cmd/marl-bench -exp all -scale full

clean:
	$(GO) clean ./...
