#!/usr/bin/env bash
# Tier-1 verification gate: a plain build + full test suite + simulator
# self-check + a one-second smoke of each repository-benchmark workload,
# then the same suite under AddressSanitizer/
# UndefinedBehaviorSanitizer, then the multi-threaded sweep-engine tests
# and the self-check under ThreadSanitizer, then a gcov line-coverage
# floor on the simulator and orchestration layers.  This is the check
# every change must pass; scripts/reproduce.sh is the heavier companion
# that also regenerates the paper tables and figures.
#
# Coverage thresholds (enforced by the coverage job below; measured as
# gcov line coverage across each directory's sources; the measured
# numbers behind each floor are recorded in docs/TESTING.md):
#   src/sim/   >= 90%  — the simulator is the subject of the paper; the
#                        differential + selfcheck suites should leave
#                        little of it unexecuted
#   src/core/  >= 80%  — CLI/sweep/selfcheck orchestration (some error
#                        plumbing and report formatting is cold)
#   src/trace/ >= 80%  — trace schema + IO (round-trip and truncation
#                        suites in tests/trace_io_test.cpp)
#   src/rete/  >= 75%  — match engine, TREAT rival and the naive oracle
#   src/pmatch/ >= 85% — BSP parallel matcher; the model checker drives
#                        every round/merge ordering the seam exposes
#   src/serve/ >= 75%  — serving engine; the engine/isolation suites and
#                        the CLI smoke cover the hot paths, some shutdown
#                        and rejection plumbing is cold
# Raise them when coverage improves; never lower them to make a change
# pass — add tests instead (docs/TESTING.md).
#
# Every ctest invocation runs with --timeout 120 so a hung test (deadlock
# in the sweep pool, runaway shrinker) fails the gate instead of wedging
# it.
#
# Usage:
#   scripts/ci.sh            # plain + sanitizer + coverage passes
#   scripts/ci.sh --fast     # plain pass only (skip sanitizers + coverage)
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
for arg in "$@"; do
  case "$arg" in
    --fast) FAST=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

echo "=== tier-1: configure + build + ctest (build/) ==="
cmake -B build -S .
cmake --build build -j "$(nproc)"
ctest --test-dir build --output-on-failure -j "$(nproc)" --timeout 120

echo "=== tier-1: simulator differential self-check ==="
./build/tools/mpps selfcheck --rounds 50 --seed 1
# The oracle must also CATCH a planted cost-model bug (exit 1).
if ./build/tools/mpps selfcheck --rounds 5 --seed 1 \
    --fault left-token-undercharge > /dev/null 2>&1; then
  echo "selfcheck failed to catch an injected fault" >&2
  exit 1
fi
# Same discipline for the network layer: the free-remote-hop fault is
# invisible on the flat wire, so catching it proves the selfcheck really
# randomizes multi-hop topologies AND that the net-hop-latency law bites.
if ./build/tools/mpps selfcheck --rounds 5 --seed 1 \
    --fault free-remote-hop > /dev/null 2>&1; then
  echo "selfcheck failed to catch an injected free-remote-hop fault" >&2
  exit 1
fi

echo "=== tier-1: pmatch model checker (exhaustive corpus + planted fault) ==="
# Every distinguishable round/merge ordering of every corpus scenario
# must agree with the serial engine (docs/TESTING.md, "Model checker").
./build/tools/mpps check --exhaustive
# The checker must also CATCH a planted merge-order fault (exit 1) — the
# same must-fail discipline the selfcheck gate uses above.  If this
# passes, the checker is blind and the gate has failed.
if ./build/tools/mpps check --exhaustive --fault merge-order \
    > /dev/null 2>&1; then
  echo "model checker failed to catch an injected merge-order fault" >&2
  exit 1
fi
# Same for a planted drain-order fault (per-sender FIFO reversed).
if ./build/tools/mpps check --exhaustive --fault drain-fifo \
    > /dev/null 2>&1; then
  echo "model checker failed to catch an injected drain-fifo fault" >&2
  exit 1
fi

# Every smoke artifact below lands in build/: the repo root holds the
# tracked full-run BENCH_pmatch.json and BENCH_serve.json, which a smoke
# run must not overwrite.
echo "=== tier-1: simulator kernel throughput smoke (build/BENCH_simkernel.json) ==="
# Smoke mode (tiny traces, 2 timed iterations) exists to catch bit-rot in
# the bench harness and to keep a per-run perf artifact; the JSON it
# writes is the run artifact (docs/SIMULATOR.md explains how to read it).
# Absolute numbers from smoke mode are noise — run the bench without
# --smoke for comparable measurements.
./build/bench/simkernel_throughput --smoke -o build/BENCH_simkernel.json
test -s build/BENCH_simkernel.json

echo "=== tier-1: topology speedup smoke (build/BENCH_topology.json) ==="
# The speedup grid per interconnection topology (flat wire / mesh /
# torus / fat-tree); smoke mode trims the processor grid but runs every
# topology, so routing + contention + auto-geometry stay exercised on
# every build (docs/SIMULATOR.md, "Network models").
./build/bench/topology_speedup --smoke -o build/BENCH_topology.json
test -s build/BENCH_topology.json

echo "=== tier-1: parallel match throughput smoke (build/BENCH_pmatch.json) ==="
# Measured (wall-clock) counterpart of the simulated curves above; the
# JSON records hardware_concurrency — on a 1-CPU runner the speedup
# columns honestly stay <= 1 (docs/PARALLEL_MATCH.md).
./build/bench/pmatch_throughput --smoke -o build/BENCH_pmatch.json
test -s build/BENCH_pmatch.json

echo "=== tier-1: profiler smoke reports (build/PROFILE_pmatch*.json) ==="
# The wall-clock phase-attribution report as a per-run artifact next to
# the bench JSONs (docs/OBSERVABILITY.md); the acceptance bound itself
# (>= 95% attributed) is asserted by tests/pmatch_profile_test.cpp, these
# smokes keep the end-to-end `run --profile --json` path exercised and
# archived: fanout on two worker threads, batched, and chain at one
# thread, where the calling thread runs the worker's steps.
./build/tools/mpps run examples/programs/bench_fanout.ops \
  --match-threads 2 --match-batch 16 --profile --json --quiet \
  > build/PROFILE_pmatch.json
./build/tools/mpps run examples/programs/bench_chain.ops \
  --match-threads 1 --profile --json --quiet \
  > build/PROFILE_pmatch_1thread.json
for report in build/PROFILE_pmatch.json build/PROFILE_pmatch_1thread.json; do
  test -s "$report"
  grep -q '"min_attributed_pct"' "$report"
done

echo "=== tier-1: serve latency smoke (build/BENCH_serve.json) ==="
# Multi-tenant serving engine latency/fusion grid (docs/SERVING.md);
# smoke mode trims the per-session transaction count but still runs the
# full sessions x threads grid, so admission batching, phase fusion and
# cross-session isolation counters stay exercised on every build.
./build/bench/serve_latency --smoke -o build/BENCH_serve.json
test -s build/BENCH_serve.json

echo "=== tier-1: serve soak (bounded RSS, ~30s) ==="
# Closed-loop soak through the real CLI: 8 concurrent sessions replaying
# sliding-window transactions for 30 seconds with a hard peak-RSS
# ceiling — a leak in session eviction, the admission queue or the
# per-transaction promise plumbing shows up here as either a ceiling
# breach (exit 1) or unbounded queue depth.  The window keeps live wmes
# bounded, so memory must be flat.
./build/tools/mpps serve examples/programs/bench_fanout.ops \
  --sessions 8 --seconds 30 --wm-window 8 --match-threads 2 \
  --rss-ceiling-mb 512 --json > build/SOAK_serve.json
test -s build/SOAK_serve.json
grep -q '"cross_session_deltas": 0' build/SOAK_serve.json

echo "=== tier-1: attribution percentage + latency percentile gate ==="
# Every *_pct field any artifact emits must sit in [0, 100], every
# *_speedup field must be finite and positive, and every p50/p95/p99
# triple must be finite, non-negative and monotone; the >100%
# conflict_update_pct regression (wrong denominator) is exactly what this
# catches (scripts/check_pct.py).
python3 scripts/check_pct.py build/BENCH_pmatch.json \
  build/PROFILE_pmatch.json build/PROFILE_pmatch_1thread.json \
  build/BENCH_topology.json build/BENCH_serve.json build/SOAK_serve.json

echo "=== tier-1: repository benchmark smoke (build/perfbench/) ==="
# perfbench/ is its own Release CMake package that compiles src/, so an
# API change that breaks its build or its correctness check would
# otherwise pass this gate and fail only in a benchmark run.  One second
# per workload: the figures are noise, the gate is the result line, which
# must report a correct run with no failed operation.
for workload in manners sweep-sections tenants; do
  CARGO_TARGET_DIR=build python3 perfbench/run.py --workload "$workload" \
    --seed 1 --seconds 1 --trace 0 > "build/perfbench-$workload.log"
  if ! tail -n 1 "build/perfbench-$workload.log" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
sys.exit(0 if result["correct"] is True and result["failed"] == 0 else 1)
'; then
    echo "perfbench $workload smoke: no correct, failure-free result" >&2
    exit 1
  fi
done

if [ "$FAST" -eq 1 ]; then
  echo "=== tier-1 passed (sanitizer + coverage passes skipped via --fast) ==="
  exit 0
fi

echo "=== sanitizers: ASan + UBSan rebuild + ctest (build-asan/) ==="
SAN_FLAGS="-fsanitize=address,undefined -fno-omit-frame-pointer -fno-sanitize-recover=all"
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$SAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
cmake --build build-asan -j "$(nproc)"
ctest --test-dir build-asan --output-on-failure -j "$(nproc)" --timeout 120
./build-asan/tools/mpps selfcheck --rounds 20 --seed 1

echo "=== sanitizers: TSan rebuild of the threaded code + its tests (build-tsan/) ==="
# TSan is incompatible with ASan/UBSan in one binary, so it gets its own
# tree; only the multi-threaded code (SweepRunner with the baselines its
# workers read, the pmatch worker threads with their phase and round
# barriers) and its tests need the pass, so
# build and run just those targets.  sweep_tests includes scenarios whose
# baseline is another scenario's trace, run at 1, 4 and 9 jobs.
# pmatch_tests includes the differential oracle at 1/2/4/8 worker
# threads, the round-batched oracle (pmatch_batch_test — fused phases
# put the most items through each round's outboxes, which one worker
# fills and another gathers across the single round barrier, and stress
# the cross-round merge hardest), plus the profiler integration and
# WorkerStats suites (pmatch_profile_test / pmatch_stats_test), so this
# is where engine races — including profiler-lane writes — would
# surface.  serve_tests adds the serving
# engine on top: concurrent client threads racing through the admission
# queue into fused phases, including the adversarial isolation suite at
# 1/2/4/8 match threads (tests/serve_isolation_test.cpp requires a
# TSan-clean run as part of its acceptance).  The naive-oracle property
# (tests/rete_oracle_test.cpp) runs the parallel engine at 2 and 4
# threads on random programs with negation, fed in random-sized batches.
# A race that shows in one run of three slips past a single run, so the
# serve and pmatch suites run several times over (--gtest_repeat).
TSAN_FLAGS="-fsanitize=thread -fno-omit-frame-pointer"
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$TSAN_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="$TSAN_FLAGS"
cmake --build build-tsan -j "$(nproc)" --target sweep_tests pmatch_tests network_tests \
  serve_tests rete_oracle_tests mpps
./build-tsan/tests/sweep_tests
./build-tsan/tests/pmatch_tests --gtest_repeat=3
./build-tsan/tests/serve_tests --gtest_repeat=5
./build-tsan/tests/rete_oracle_tests --gtest_filter='*ParallelMatches*'
# The network layer itself is single-threaded, but the sweep engine
# replays topology configurations across worker threads (baselines
# resolved before the fan-out and only read by the workers, per-run
# NetworkModel instances) — run the suite here so a future shared-state
# shortcut in a model surfaces as a race.
./build-tsan/tests/network_tests
./build-tsan/tools/mpps selfcheck --rounds 10 --seed 1

echo "=== coverage: gcov rebuild + line-coverage floors (build-cov/) ==="
# gcovr/lcov are not available in the container, so the job drives raw
# gcov: rebuild with --coverage, run the full suite plus a selfcheck,
# then aggregate "Lines executed" per source directory with a small
# python reader (scripts/coverage_gate.py documents the math).
COV_FLAGS="--coverage -O0"
cmake -B build-cov -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="$COV_FLAGS" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage"
cmake --build build-cov -j "$(nproc)"
ctest --test-dir build-cov --output-on-failure -j "$(nproc)" --timeout 240
./build-cov/tools/mpps selfcheck --rounds 20 --seed 1
python3 scripts/coverage_gate.py build-cov \
  src/sim=90 src/core=80 src/trace=80 src/rete=75 src/pmatch=85 src/serve=75

echo "=== tier-1 + sanitizers + coverage passed ==="
