# Developer entry points for the bayesnn-fpga workspace.
#
#   make build      - release build of every crate
#   make test       - full test suite (unit + integration + doctests)
#   make test-doc   - documentation tests only (every rustdoc example)
#   make test-st    - the same suite pinned to one thread (BNN_THREADS=1)
#   make test-scalar- the same suite with SIMD disabled (BNN_SIMD=scalar)
#   make bench      - run the criterion bench targets
#   make bench-quant- run only the quantized-predict + plan-compile kernel
#                     benches
#   make bench-save - run kernels + framework_phases benches and record the
#                     results as BENCH_kernels.json / BENCH_phases.json
#   make test-plans - allocation-audit, planned-parity, SIMD-parity and the
#                     plan-vs-float-reference compile-step suites, under
#                     BNN_THREADS=1 and 4
#   make test-serving - serving smoke + determinism suites, under
#                     BNN_THREADS=1 and 4
#   make test-robust - serving fault-tolerance suite (panic isolation,
#                     deadlines, backpressure, degradation, chaos), under
#                     BNN_THREADS=1 and 4
#   make test-adaptive - adaptive early-exit parity + allocation audit,
#                     under BNN_THREADS=1 and 4
#   make test-hls   - HLS codegen golden-file snapshots + sim-vs-plan
#                     differential suites, under BNN_THREADS=1 and 4
#   make bench-serving - replay the serving harness and record the results
#                     as BENCH_serving.json
#   make perfbench  - the repository benchmark (BENCHMARK.json): all four
#                     workloads, one process each, end-to-end metrics
#   make test-perfbench - the benchmark's own unit tests
#   make loc        - non-blank, non-comment line counts of library and test
#                     code, per crate and in total (the LOC delta a
#                     simplification change reports)
#   make lint       - rustfmt check + clippy with warnings denied
#   make doc        - rustdoc with warnings denied
#   make ci         - everything the merge gate runs

CARGO ?= cargo

# bench-save pipes cargo bench into a parser; pipefail makes a bench failure
# fail the recipe instead of silently recording partial results.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: all build test test-doc test-st test-scalar test-plans test-serving test-robust test-adaptive test-hls test-perfbench bench bench-build bench-quant bench-save bench-serving perfbench loc lint fmt doc clean ci

all: build

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q

# Documentation tests on their own: the crate-level worked examples
# (calibrate -> compile -> integer predict, etc.) are part of the merge gate.
test-doc:
	$(CARGO) test -q --doc --workspace

# The parallel phases must produce identical results on one thread; running
# the suite under BNN_THREADS=1 exercises every sequential fallback path.
test-st:
	BNN_THREADS=1 $(CARGO) test -q

# Integer kernels are bitwise identical on every SIMD backend; running the
# suite with BNN_SIMD=scalar keeps the scalar fallback verified on hosts
# where auto-detection would otherwise never leave the vector path.
test-scalar:
	BNN_SIMD=scalar $(CARGO) test -q

# The execution-plan guarantees, pinned at both ends of the thread-count
# range: zero steady-state allocations in planned predict_probs, a shared
# calibration record matching per-format calibration, SIMD backends bitwise
# identical to scalar, and the compiled integer plan tracking the fake-quant
# float reference built from the same record (within one quantization step,
# exactly up to 8 bits) — the check of the plan's compile step.
test-plans:
	BNN_THREADS=1 $(CARGO) test -q --test allocation_audit --test planned_parity --test simd_parity --test quantized_inference
	BNN_THREADS=4 $(CARGO) test -q --test allocation_audit --test planned_parity --test simd_parity --test quantized_inference

# The serving-layer guarantees at both ends of the thread-count range: every
# replayed request delivered and bit-exact with direct plan calls, outputs
# invariant to batch boundaries and worker counts, and cache invalidation
# safe under concurrent mutation.
test-serving:
	BNN_THREADS=1 $(CARGO) test -q --test serving_smoke --test serving_determinism
	BNN_THREADS=4 $(CARGO) test -q --test serving_smoke --test serving_determinism

# The fault-tolerance guarantees at both ends of the thread-count range:
# worker panics isolated to their batch (typed replies, supervisor respawn,
# no hung handles), deadline eviction, bounded-queue backpressure, the
# degradation ladder stepping down and recovering, and the seeded chaos run
# (2 of 4 workers panic mid-run under Poisson load, survivors bit-exact).
test-robust:
	BNN_THREADS=1 $(CARGO) test -q --test serving_faults
	BNN_THREADS=4 $(CARGO) test -q --test serving_faults

# The adaptive early-exit guarantees at both ends of the thread-count range:
# adaptive-batch prediction bit-exact with per-sample evaluation across all
# formats/policies/executors, `Never` identical to the fixed-depth path, and
# zero steady-state allocations through retirement + survivor compaction.
test-adaptive:
	BNN_THREADS=1 $(CARGO) test -q --test adaptive_exit_parity --test allocation_audit
	BNN_THREADS=4 $(CARGO) test -q --test adaptive_exit_parity --test allocation_audit

# The HLS codegen guarantees at both ends of the thread-count range: emitted
# defines.h/top.cpp pinned against the checked-in goldens (regenerate with
# UPDATE_GOLDEN=1, see tests/hls_golden_files.rs), and the golden-reference
# simulator bit-exact with the compiled integer plan across every zoo model
# × searched format.
test-hls:
	BNN_THREADS=1 $(CARGO) test -q --test hls_golden_files --test hls_golden_sim
	BNN_THREADS=4 $(CARGO) test -q --test hls_golden_files --test hls_golden_sim

bench:
	$(CARGO) bench -p bnn-bench

# Only the quantized kernel benches (planned 8-bit predict + plan compile
# cost) — the fast signal when iterating on the integer hot path.
bench-quant:
	$(CARGO) bench -p bnn-bench --bench kernels -- quantized

# Compile the bench targets without running them (fast CI signal).
bench-build:
	$(CARGO) bench --no-run

# Record the kernel + per-phase benchmark results as machine-readable JSON at
# the repo root, so the perf trajectory is diffable across PRs.
bench-save:
	$(CARGO) build --release -p bnn-bench --bin bench_save
	$(CARGO) bench -p bnn-bench --bench kernels \
		| $(CARGO) run --release -q -p bnn-bench --bin bench_save -- BENCH_kernels.json
	$(CARGO) bench -p bnn-bench --bench framework_phases \
		| $(CARGO) run --release -q -p bnn-bench --bin bench_save -- BENCH_phases.json

# Replay seeded open-loop traffic against the dynamic-batching server (two
# batching configs on the LeNet-5 8-bit plan) and record requests/sec,
# p50/p99 latency and batch occupancy as machine-readable JSON.
bench-serving:
	$(CARGO) run --release -p bnn-bench --bin bench_serving -- BENCH_serving.json

# The repository benchmark as BENCHMARK.json declares it, over every
# workload.
perfbench:
	$(CARGO) run --release --quiet --offline --locked --manifest-path perfbench/Cargo.toml -- --workload all

# The benchmark is a workspace of its own, so the root `cargo test` does not
# reach its unit tests (argument parsing, statistics, load generation,
# tracing).
test-perfbench:
	$(CARGO) test -q --offline --locked --manifest-path perfbench/Cargo.toml

# Lines that are neither blank nor `//` comments (doc comments are comments), in
# crates/*/src, src/ and tests/. Library code is everything outside
# `#[cfg(test)]` modules; test code is those modules plus tests/.
loc:
	@find crates/*/src src tests -name '*.rs' | LC_ALL=C sort | xargs awk ' \
		FNR == 1 { \
			area = FILENAME; sub(/\/src\/.*/, "", area); sub(/^crates\//, "", area); \
			if (FILENAME ~ /^src\//) area = "facade"; \
			if (FILENAME ~ /^tests\//) area = "tests"; \
			depth = 0; armed = 0; if (!(area in seen)) { seen[area] = 1; order[++n] = area } \
		} \
		/^[ \t]*$$/ || /^[ \t]*\/\// { next } \
		depth > 0 { test[area]++; depth += gsub(/\{/, "{") - gsub(/\}/, "}"); next } \
		armed && /^[ \t]*(pub )?mod [a-z0-9_]+ *\{/ { \
			test[area]++; armed = 0; depth = gsub(/\{/, "{") - gsub(/\}/, "}"); next \
		} \
		/^[ \t]*#\[cfg\(test\)\]/ { test[area]++; armed = 1; next } \
		{ armed = 0; if (area == "tests") test[area]++; else lib[area]++ } \
		END { \
			printf "%-10s %8s %8s\n", "area", "library", "test"; \
			for (i = 1; i <= n; i++) { \
				a = order[i]; printf "%-10s %8d %8d\n", a, lib[a], test[a]; tl += lib[a]; tt += test[a] \
			} \
			printf "%-10s %8d %8d\n", "total", tl, tt \
		}'

lint:
	$(CARGO) fmt --check
	$(CARGO) clippy --workspace --all-targets -- -D warnings

fmt:
	$(CARGO) fmt

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

clean:
	$(CARGO) clean

ci: lint build test test-doc test-st test-scalar test-plans test-serving test-robust test-adaptive test-hls test-perfbench bench-build doc
