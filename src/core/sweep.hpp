// The multi-threaded sweep engine: fans independent (trace, SimConfig,
// Assignment) scenarios out across a pool of worker threads.  The paper's
// whole methodology is parameter sweeps over a fixed trace (Figures
// 5-1…5-6 replay the same sections under dozens of configurations), and
// every scenario is independent, so the sweep parallelizes perfectly.
//
// Determinism guarantee: results are bit-identical for every jobs value.
// Each scenario's simulation is already deterministic (the simulator's
// event heap orders ties by (time, seq)), each scenario records into
// private observability sinks, and the runner collects outcomes into
// slots indexed by scenario — merging the per-scenario sinks in scenario
// order at join — so nothing observable depends on thread scheduling.
// Asserted in tests/core_sweep_test.cpp.
//
// Every speedup divides by the serial zero-overhead baseline of its
// scenario's baseline trace.  `run` simulates each distinct baseline
// trace once per call, before the fan-out, and every scenario over that
// trace reads the result; nothing is remembered between calls, so a
// trace changed between two calls gets a fresh baseline.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/tracer.hpp"
#include "src/sim/simulator.hpp"
#include "src/trace/record.hpp"

namespace mpps::core {

/// One independent replay.  The trace pointers are not owned; they must
/// outlive the `run` call and the traces must not change during it.
struct SweepScenario {
  std::string label;
  const trace::Trace* trace = nullptr;
  /// Trace whose serial zero-overhead time is the speedup denominator;
  /// null ⇒ `trace` itself.  Transformed traces are compared against the
  /// ORIGINAL section's baseline (they do the same semantic work).
  const trace::Trace* baseline = nullptr;
  /// `metrics`/`tracer` in here are ignored: the runner attaches its own
  /// per-scenario sinks (see SweepOptions).
  sim::SimConfig config;
  sim::Assignment assignment;
};

/// Outcome i of SweepRunner::run corresponds to scenario i.
struct SweepOutcome {
  std::string label;
  sim::SimResult result;
  SimTime baseline{};
  double speedup = 0.0;
};

struct SweepOptions {
  /// Worker threads; 0 ⇒ std::thread::hardware_concurrency() (min 1).
  unsigned jobs = 0;
  /// Optional merged sinks.  When set, every scenario records into a
  /// private Registry/Tracer and the runner folds them into these in
  /// scenario order at join — byte-identical output for every jobs value.
  obs::Registry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
  /// Run sim::check_run_invariants on every outcome, and
  /// sim::check_cross_run_invariants over every group of scenarios that
  /// replay the same trace with the same assignment (the metamorphic
  /// law layer of docs/TESTING.md — including the event-conservation
  /// law pinning SimResult::events constant across the cost grid).  A
  /// violated law fails the sweep like any other error; per-run law
  /// counters land in the per-scenario registries and the cross-run
  /// pass runs serially after the join, so merged metrics stay
  /// identical for every jobs value.
  bool check_invariants = false;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// The resolved worker count.
  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// Runs every scenario and returns the outcomes in scenario order.
  /// Scenario failures (e.g. an assignment/partition mismatch) are
  /// rethrown after all workers join; when several scenarios fail, the
  /// lowest-indexed failure wins — again independent of scheduling.
  std::vector<SweepOutcome> run(
      const std::vector<SweepScenario>& scenarios) const;

 private:
  SweepOptions options_;
  unsigned jobs_ = 1;
};

/// One-call form: `run_sweep(scenarios, jobs)`.
std::vector<SweepOutcome> run_sweep(const std::vector<SweepScenario>& scenarios,
                                    unsigned jobs = 0);

}  // namespace mpps::core
