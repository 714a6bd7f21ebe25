GO ?= go
DATE := $(shell date +%Y-%m-%d)

# Samples per benchmark in `make bench`. With 4+ samples per side,
# daisy-trend's rank-sum test replaces the wide single-sample thresholds.
BENCH_COUNT ?= 4

.PHONY: all build test vet race race-hot race-async chaos-smoke chaos-soak tier2-soak aot-soak bench-smoke profile-smoke cover cover-update ci bench benchcmp experiments paper paper-smoke trend trend-check

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The hot-path packages under the race detector: the parallel experiment
# runner and the chaos harness are the two places goroutines touch shared
# machinery, so they get an explicit -race pass in CI. Guest memory joins
# them because clones share pages copy-on-write: its flat-model fuzz seeds
# and clone tests run here too.
race-hot:
	$(GO) test -race ./internal/chaos/... ./internal/experiments/...
	$(GO) test -race ./internal/mem

# The asynchronous-translation gates: the soak that runs every workload
# with the worker pool on (under -race, it checks the machine/worker
# seam), the staleness/backpressure tests, the warm-up yield to workers,
# and the persistent-cache round-trip and damage-fallback tests.
race-async:
	$(GO) test -race ./internal/vmm -run 'TestAsync|TestWarmCache|TestCache'
	$(GO) test -race ./internal/txcache

# Short deterministic chaos pass: every workload under every injector,
# fixed seeds, so CI failures are replayable with the printed triple.
chaos-smoke:
	$(GO) run ./cmd/daisy-chaos -seed 1 -seeds 2

# Crash-safety soak: the full seeded injector matrix — including the
# worker-panic/hang/overflow/stale-publish and cache-I/O injectors —
# under the race detector. Every injected fault must surface as a
# counted degradation with zero divergences; any failure is replayable
# from the printed (workload, injector, seed) triple.
chaos-soak:
	$(GO) run -race ./cmd/daisy-chaos -seed 1 -seeds 4

# Compile and exercise the perf-path benchmarks once so a regression that
# breaks them is caught in CI, not at the next perf investigation. The
# pattern matches both the bare executor and the telemetry-attached variant.
bench-smoke:
	$(GO) test -run='^$$' -bench=ExecutorThroughput -benchtime=1x .

# End-to-end profiler gate: run a workload with every dispatch attributed,
# export the pprof payload, and structurally validate it round-trips.
profile-smoke:
	$(GO) run ./cmd/daisy-profile -workload c_sieve -o /tmp/daisy-profile-smoke.pb -top 5 -check

# Tier-2 soak: the optimizing-retranslation gates under the race detector —
# the deopt/quarantine policy tests, the deferred-commit reconstruction
# wall (the FuzzTier2Lockstep seed corpus replays as unit cases), the
# tier-2 golden equivalence + determinism suite, and the traditional-
# compiler baseline, whose branch profile type (sched.Profile) tier 2
# shares. Byte-identical output against the tier-1 goldens is the bar.
tier2-soak:
	$(GO) test -race ./internal/vmm -run 'TestTier2|FuzzTier2Lockstep'
	$(GO) test -race ./internal/golden -run 'Tier2'
	$(GO) test -race ./internal/tradcomp/...

# AOT soak: whole-binary pre-translation equivalence under the race
# detector — precompile-then-run must be byte-identical to a synchronous
# cold machine on every golden workload, stay that way while injectors
# rewrite guest code (smc-storm) or damage the cache (cache-bitflip,
# cache-skew), and the two-tier store must survive concurrent shared use.
aot-soak:
	$(GO) test -race ./internal/vmm -run 'TestPrecompile'
	$(GO) test -race ./internal/chaos -run 'TestPrecompileUnderChaos'
	$(GO) test -race ./internal/txcache -run 'TestHotTier|TestConcurrentSharedStore|TestSingleFlight'

# Coverage ratchet: total statement coverage may not fall more than 0.5
# points below the committed COVERAGE.txt baseline. Raise the floor after
# adding tests with `make cover-update`.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./cmd/daisy-cover -profile cover.out -check

cover-update:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./cmd/daisy-cover -profile cover.out -update
	@echo "commit COVERAGE.txt to ratchet the floor"

ci: vet build race race-hot race-async chaos-smoke chaos-soak tier2-soak aot-soak bench-smoke profile-smoke paper-smoke trend-check cover

# Run the full benchmark suite BENCH_COUNT times and archive the parsed
# metrics as a dated JSON snapshot — the repository's perf trajectory.
# The snapshot carries a provenance manifest and the raw per-benchmark
# sample distributions; compare two snapshots with
# `make benchcmp A=BENCH_old.json B=BENCH_new.json` or gate with
# `go run ./cmd/daisy-trend check OLD NEW`.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -count=$(BENCH_COUNT) -benchmem . | \
		$(GO) run ./cmd/daisy-bench -json -benchtime=1x -count=$(BENCH_COUNT) > BENCH_$(DATE).json
	@echo "wrote BENCH_$(DATE).json"

benchcmp:
	$(GO) run ./cmd/daisy-bench -diff $(A) $(B)

experiments:
	$(GO) run ./cmd/daisy-experiments

# One-command paper reproduction: the full experiment grid, chaos matrix,
# profiler smoke and output cross-check into a timestamped runs/<stamp>/
# folder. See EXPERIMENTS.md "Reproduce the paper".
paper:
	$(GO) run ./cmd/daisy-paper -plot

# CI gate: a scale-1 grid with trimmed rep counts into a throwaway
# folder. daisy-paper exits nonzero if any experiment fails, any output
# digest mismatches the reference interpreter or the goldens, the chaos
# matrix diverges, or the finished folder fails integrity validation.
paper-smoke:
	$(GO) run ./cmd/daisy-paper -reps 2 -fleet-reps 1 -machines 2 -chaos-seeds 1 \
		-out $${TMPDIR:-/tmp}/daisy-paper-smoke -name ci

# Render the perf-trend wall over every committed BENCH_*.json snapshot.
trend:
	$(GO) run ./cmd/daisy-trend wall

# CI gate: benchmark the working tree (2 samples per benchmark, enough
# for honest min-of-N) and gate the pinned headline metrics against the
# newest committed snapshot. Wall-clock metrics only gate when both
# snapshots come from the same host; deterministic metrics (allocs/op,
# cycles/inst) gate everywhere. Acknowledge an intentional regression by
# re-running with ACK="Benchmark/metric" (see EXPERIMENTS.md).
trend-check:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -count=2 -benchmem . | \
		$(GO) run ./cmd/daisy-bench -json -benchtime=1x -count=2 > $${TMPDIR:-/tmp}/daisy-trend-now.json
	$(GO) run ./cmd/daisy-trend check $(if $(ACK),-ack "$(ACK)") \
		$(lastword $(sort $(wildcard BENCH_*.json))) $${TMPDIR:-/tmp}/daisy-trend-now.json
